#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace fenceless::harness
{

unsigned
SweepRunner::resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs) : jobs_(resolveJobs(jobs)) {}

void
SweepRunner::runAll(std::vector<std::function<void()>> thunks) const
{
    const std::size_t n = thunks.size();
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, n));
    if (workers <= 1) {
        // Sequential path: no threads created, exceptions propagate
        // directly.
        for (auto &thunk : thunks)
            thunk();
        return;
    }

    // All tasks are known up front and none spawns more, so one shared
    // cursor hands them out: each worker claims the next index until
    // the cursor passes the end.  Tasks are whole simulation runs
    // (milliseconds to seconds), so one atomic increment per task is
    // negligible next to the work.
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::size_t error_index = n;
    std::exception_ptr error;

    auto worker = [&] {
        for (std::size_t task = next.fetch_add(1); task < n;
             task = next.fetch_add(1)) {
            try {
                thunks[task]();
            } catch (...) {
                // Keep the failure the sequential run would hit first.
                std::lock_guard<std::mutex> lock(error_mutex);
                if (task < error_index) {
                    error_index = task;
                    error = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back(worker);
    for (auto &thread : threads)
        thread.join();

    if (error)
        std::rethrow_exception(error);
}

} // namespace fenceless::harness
