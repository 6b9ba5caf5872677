/**
 * @file
 * Shared helpers for the experiment binaries (T1..T3, F1..F9).
 *
 * Each bench binary regenerates one table or figure of the
 * reconstructed evaluation (see DESIGN.md section 5 and
 * EXPERIMENTS.md): it sweeps configurations, runs and verifies the
 * workloads through harness::runWorkload, and prints the rows/series.
 *
 * Sweeps are host-parallel: every (workload x configuration) point is
 * an independent deterministic simulation, so the binaries package
 * each point as a task, hand the batch to harness::SweepRunner
 * (--jobs=N, default hardware concurrency), and render the ordered
 * results on the main thread.  Output is byte-identical to --jobs=1.
 * A failed point is a harness::RunError value, surfaced by
 * harness::sweepFailed once the sweep has drained.
 */

#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "harness/options.hh"
#include "harness/run.hh"
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

/**
 * One rendered table row produced by a sweep task -- the common case.
 * A failed run leaves the cells empty and its RunError set.
 */
struct Row : harness::RunError
{
    std::vector<std::string> cells{};
};

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
