/**
 * @file
 * Host-parallel execution of independent simulation runs.
 *
 * Every harness::System is a fully self-contained deterministic
 * simulation (its own event queue, stat registry and memory image), so
 * the (workload x model x sweep-point) runs of an experiment are
 * embarrassingly parallel on the host.  A SweepRunner executes a batch
 * of such tasks on a small thread pool whose workers claim task indices
 * from one shared atomic cursor, and hands the results back **in
 * submission order**: tasks carry their index, the result buffer
 * restores the sequence, and all rendering happens on the calling
 * thread -- so output is bit-for-bit identical to a sequential run
 * regardless of the worker count.
 *
 *     harness::SweepRunner runner(opts.jobs());
 *     std::vector<std::function<Row()>> tasks = ...;
 *     std::vector<Row> rows = runner.map(std::move(tasks));
 *
 * Tasks must not share mutable state (each one builds its own
 * workloads and Systems) and must report failures as values rather
 * than calling fatal(): an exit() from a worker thread would kill the
 * whole sweep mid-output.  Results carry the failure by deriving from
 * harness::RunError, and harness::sweepFailed reports them once the
 * sweep has drained (harness/run.hh).
 */

#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace fenceless::harness
{

class SweepRunner
{
  public:
    /**
     * @param jobs worker count; 0 picks the host's hardware
     *             concurrency, 1 runs every task inline on the calling
     *             thread (the legacy sequential path, no threads
     *             created).
     */
    explicit SweepRunner(unsigned jobs = 0);

    /** The resolved worker count (never 0). */
    unsigned jobs() const { return jobs_; }

    /** Resolve jobs the way the constructor does (0 -> hardware). */
    static unsigned resolveJobs(unsigned jobs);

    /**
     * Run every task and return their results indexed exactly like
     * @p tasks.  Tasks execute in any order on any worker; results are
     * buffered by submission index.  If tasks throw, the exception of
     * the lowest-index throwing task is rethrown after every worker
     * has stopped, matching what the sequential path would surface
     * first.
     */
    template <typename R>
    std::vector<R>
    map(std::vector<std::function<R()>> tasks) const
    {
        std::vector<R> results(tasks.size());
        std::vector<std::function<void()>> thunks;
        thunks.reserve(tasks.size());
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            thunks.push_back(
                [&results, &tasks, i] { results[i] = tasks[i](); });
        }
        runAll(std::move(thunks));
        return results;
    }

    /** map() for tasks whose only output is a side effect. */
    void
    run(std::vector<std::function<void()>> tasks) const
    {
        runAll(std::move(tasks));
    }

  private:
    void runAll(std::vector<std::function<void()>> thunks) const;

    unsigned jobs_;
};

} // namespace fenceless::harness
