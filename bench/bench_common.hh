/**
 * @file
 * Shared helpers for the experiment binaries (T1..T3, F1..F9).
 *
 * Each bench binary regenerates one table or figure of the
 * reconstructed evaluation (see DESIGN.md section 5 and
 * EXPERIMENTS.md): it sweeps configurations, runs the workloads,
 * verifies their postconditions, and prints the rows/series.
 *
 * Sweeps are host-parallel: every (workload x configuration) point is
 * an independent deterministic simulation, so the binaries package
 * each point as a task, hand the batch to harness::SweepRunner
 * (--jobs=N, default hardware concurrency), and render the ordered
 * results on the main thread.  Output is byte-identical to --jobs=1.
 */

#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "harness/exit_codes.hh"
#include "harness/options.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "workload/workload.hh"

namespace fenceless::bench
{

/** The default evaluated machine (Table T1). */
inline harness::SystemConfig
defaultConfig(std::uint32_t cores = 8)
{
    harness::SystemConfig cfg;
    cfg.num_cores = cores;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.sb_size = 16;
    cfg.l1.size = 32 * 1024;
    cfg.l1.assoc = 8;
    cfg.l1.hit_latency = 2;
    cfg.l2.size = 4 * 1024 * 1024;
    cfg.l2.assoc = 16;
    cfg.l2.latency = 6;
    cfg.l2.dram_latency = 80;
    cfg.net.latency = 8;
    cfg.max_cycles = 2'000'000'000ULL;
    return cfg;
}

/** Counters of one measured run. */
struct RunResult
{
    Tick cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t commits = 0;
    std::uint64_t rollbacks = 0;
};

/**
 * Outcome of one measured run.  Termination and postconditions are
 * hard requirements -- an experiment on a broken run would be
 * meaningless -- but a failure must not kill the whole sweep from a
 * worker thread, so it is reported as a value and surfaced by the
 * main thread once the sweep has drained.
 */
struct RunOutcome
{
    RunResult result;
    prof::Profile profile; //!< empty unless cfg.profile was set
    std::string error;
    bool hung = false; //!< watchdog abort or cycle-budget exhaustion

    bool ok() const { return error.empty(); }
    explicit operator bool() const { return ok(); }
};

/**
 * Like RunOutcome, but keeps the simulated System alive so the caller
 * can read component statistics after the run.
 */
struct MeasuredSystem
{
    std::unique_ptr<harness::System> sys;
    std::string error;
    bool hung = false; //!< watchdog abort or cycle-budget exhaustion

    bool ok() const { return error.empty(); }
    explicit operator bool() const { return ok(); }
};

/**
 * Build, run and verify one workload under one configuration,
 * returning the System for stat inspection.
 */
inline MeasuredSystem
measureSystem(workload::Workload &wl, const harness::SystemConfig &cfg)
{
    MeasuredSystem m;
    isa::Program prog = wl.build(cfg.num_cores);
    m.sys = std::make_unique<harness::System>(cfg, prog);
    if (!m.sys->run()) {
        m.hung = true;
        m.error = "workload '" + wl.name() +
                  (m.sys->hung()
                       ? "' hung (watchdog abort, stall dossier above)"
                       : "' did not terminate within the cycle budget");
        return m;
    }
    std::string check_error;
    if (!wl.check(m.sys->memReader(), cfg.num_cores, check_error)) {
        m.error = "workload '" + wl.name() +
                  "' failed verification: " + check_error;
    }
    return m;
}

/**
 * Build, run and verify one workload; counters only.  When profiling
 * is enabled in @p cfg the outcome also carries the run's waste
 * profile, with every key prefixed by @p profile_scope so profiles
 * from different sweep points merge without colliding.
 */
inline RunOutcome
measure(workload::Workload &wl, const harness::SystemConfig &cfg,
        const std::string &profile_scope = "")
{
    RunOutcome out;
    MeasuredSystem m = measureSystem(wl, cfg);
    if (!m.ok()) {
        out.error = std::move(m.error);
        out.hung = m.hung;
        return out;
    }
    out.result.cycles = m.sys->runtimeCycles();
    out.result.instructions = m.sys->totalInstructions();
    out.result.commits = m.sys->totalCommits();
    out.result.rollbacks = m.sys->totalRollbacks();
    if (cfg.profile)
        out.profile = m.sys->profile(profile_scope);
    return out;
}

/**
 * One rendered table row produced by a sweep task -- the common case.
 * A non-empty error marks the task (and the experiment) as failed.
 */
struct Row
{
    std::vector<std::string> cells;
    std::string error;
    bool hung = false; //!< the task's run hung (watchdog / budget)
};

/**
 * Surface task failures once a sweep has drained: print every task's
 * error to stderr, in submission order.  Works on any result type with
 * `error` and `hung` fields.
 * @return the process exit code (harness/exit_codes.hh): exit_hang if
 *         any task hung, exit_postcondition if tasks failed for another
 *         reason (a workload postcondition), 0 if every task succeeded
 */
template <typename R>
int
sweepFailed(const std::vector<R> &results)
{
    int code = harness::exit_ok;
    for (const R &r : results) {
        if (r.error.empty())
            continue;
        std::cerr << "error: " << r.error << "\n";
        if (r.hung)
            code = harness::exit_hang;
        else if (code != harness::exit_hang)
            code = harness::exit_postcondition;
    }
    return code;
}

/**
 * The standard suite as shared_ptrs, so each sweep task can co-own
 * exactly one workload (std::function closures must be copyable).
 * Tasks never share a workload instance: one task per workload.
 */
inline std::vector<std::shared_ptr<workload::Workload>>
sharedSuite(unsigned scale)
{
    std::vector<std::shared_ptr<workload::Workload>> suite;
    for (auto &wl : workload::standardSuite(scale))
        suite.push_back(std::move(wl));
    return suite;
}

/** Standard experiment header. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::cout << "\n=== " << id << ": " << title << " ===\n\n";
}

/**
 * Mean of the named latency distribution averaged over every component
 * group whose name starts with @p group_prefix (e.g. all "l1_*"
 * caches), weighted by sample count.  Returns 0 with no samples.
 * This is the request-lifetime attribution view: each phase of a miss
 * (L1 miss to fill, directory queueing, directory service, network
 * transit) owns one distribution, and the phase means decompose the
 * end-to-end miss latency.
 */
inline double
meanPhaseLatency(const harness::System &sys,
                 const std::string &group_prefix,
                 const std::string &dist_name)
{
    double weighted = 0;
    std::uint64_t samples = 0;
    for (const auto &group : sys.stats().groups()) {
        if (group->name().rfind(group_prefix, 0) != 0)
            continue;
        const statistics::Distribution *d =
            group->findDistribution(dist_name);
        if (!d || d->samples() == 0)
            continue;
        weighted += d->mean() * static_cast<double>(d->samples());
        samples += d->samples();
    }
    return samples ? weighted / static_cast<double>(samples) : 0.0;
}

} // namespace fenceless::bench
