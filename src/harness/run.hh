/**
 * @file
 * One checked run: build a workload's program, run it on its own
 * System, verify its postconditions, audit its coherence state, and
 * report a failure as a value.
 *
 * The evaluation binaries and examples run their workloads through
 * runWorkload().  Termination, postconditions and a quiesced machine
 * are hard requirements -- a table computed from a broken run would
 * be meaningless -- but a failing point must not exit() from a sweep
 * worker thread, so the failure comes back as a RunError.  The
 * coherence audit that follows panics on a violation, as it would
 * anywhere: a broken protocol invariant is a simulator bug.  Sweep
 * results carry it by deriving from RunError, and the main thread
 * surfaces every failure with sweepFailed() once the sweep has
 * drained (DESIGN.md section 7.1):
 *
 *     struct Meas : harness::RunError { double cycles = 0; };
 *     ...
 *     harness::Run run = harness::runWorkload(wl, cfg);
 *     if (!run.ok())
 *         return {run};
 *     out.cycles = run.sys->runtimeCycles();
 *     ...
 *     if (int code = harness::sweepFailed(results))
 *         return code;
 */

#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/exit_codes.hh"
#include "harness/system.hh"
#include "workload/workload.hh"

namespace fenceless::harness
{

/** Why a run failed; an empty error means it succeeded. */
struct RunError
{
    std::string error;
    bool hung = false; //!< watchdog abort or cycle-budget exhaustion

    bool ok() const { return error.empty(); }
};

/** One checked run and its System, kept even when the run failed. */
struct Run : RunError
{
    std::unique_ptr<System> sys;
};

/** Build, run, verify and audit @p wl under @p cfg. */
inline Run
runWorkload(workload::Workload &wl, const SystemConfig &cfg)
{
    Run run;
    isa::Program prog = wl.build(cfg.num_cores);
    run.sys = std::make_unique<System>(cfg, prog);
    if (!run.sys->run()) {
        run.hung = true;
        run.error = "workload '" + wl.name() +
                    (run.sys->hung()
                         ? "' hung (watchdog abort, stall dossier above)"
                         : "' did not terminate within the cycle budget");
        return run;
    }
    std::string check_error;
    if (!wl.check(run.sys->memReader(), cfg.num_cores, check_error)) {
        run.error = "workload '" + wl.name() +
                    "' failed verification: " + check_error;
        return run;
    }
    if (!run.sys->quiesced()) {
        run.error = "workload '" + wl.name() +
                    "' did not quiesce (events, misses or directory "
                    "transactions still in flight)";
        return run;
    }
    run.sys->auditCoherence();
    return run;
}

/**
 * Surface the failures of a drained sweep: print every result's error
 * to stderr, in submission order.  @p results derive from RunError.
 * @return the process exit code (harness/exit_codes.hh): exit_hang if
 *         any run hung, exit_postcondition if runs failed for another
 *         reason (a workload postcondition), 0 if every run succeeded
 */
template <typename R>
int
sweepFailed(const std::vector<R> &results)
{
    int code = exit_ok;
    for (const RunError &r : results) {
        if (r.ok())
            continue;
        std::cerr << "error: " << r.error << "\n";
        if (r.hung)
            code = exit_hang;
        else if (code != exit_hang)
            code = exit_postcondition;
    }
    return code;
}

} // namespace fenceless::harness
