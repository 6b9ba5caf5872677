/**
 * @file
 * Unit tests for the host-parallel sweep runner: result ordering,
 * error propagation, the determinism guarantee (a table rendered from
 * simulation runs is byte-identical for any worker count) and the
 * exit code of a failed sweep.  Also covers the one-shot event path
 * the runner's workloads lean on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/run.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "sim/eventq.hh"
#include "workload/microbench.hh"

using namespace fenceless;

namespace
{

/** Render one small real simulation into a table row. */
std::vector<std::string>
runPoint(std::uint32_t cores, bool speculative)
{
    harness::SystemConfig cfg;
    cfg.num_cores = cores;
    cfg.model = cpu::ConsistencyModel::TSO;
    if (speculative)
        cfg.withSpeculation();
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cores);
    harness::System sys(cfg, prog);
    EXPECT_TRUE(sys.run());
    return {std::to_string(cores), speculative ? "IF" : "base",
            std::to_string(sys.runtimeCycles())};
}

/** The full sweep -> table -> string path at a given worker count. */
std::string
renderSweep(unsigned jobs)
{
    std::vector<std::function<std::vector<std::string>()>> tasks;
    for (std::uint32_t cores : {1u, 2u, 4u}) {
        for (bool speculative : {false, true}) {
            tasks.push_back([cores, speculative] {
                return runPoint(cores, speculative);
            });
        }
    }
    harness::SweepRunner runner(jobs);
    auto rows = runner.map(std::move(tasks));
    harness::Table table({"cores", "mode", "cycles"});
    for (auto &row : rows)
        table.addRow(std::move(row));
    std::ostringstream os;
    table.print(os);
    return os.str();
}

/** harness::sweepFailed on @p results, plus what it printed. */
int
sweepFailedPrinting(const std::vector<harness::RunError> &results,
                    std::string &printed)
{
    std::ostringstream err;
    std::streambuf *saved = std::cerr.rdbuf(err.rdbuf());
    const int code = harness::sweepFailed(results);
    std::cerr.rdbuf(saved);
    printed = err.str();
    return code;
}

} // namespace

TEST(SweepRunner, ResolvesJobCounts)
{
    EXPECT_GE(harness::SweepRunner::resolveJobs(0), 1u);
    EXPECT_EQ(harness::SweepRunner::resolveJobs(1), 1u);
    EXPECT_EQ(harness::SweepRunner::resolveJobs(6), 6u);
    EXPECT_EQ(harness::SweepRunner(3).jobs(), 3u);
}

TEST(SweepRunner, MapPreservesSubmissionOrder)
{
    const std::size_t n = 64;
    for (unsigned jobs : {1u, 8u}) {
        std::vector<std::function<int()>> tasks;
        for (std::size_t i = 0; i < n; ++i)
            tasks.push_back([i] { return static_cast<int>(i * i); });
        harness::SweepRunner runner(jobs);
        auto results = runner.map(std::move(tasks));
        ASSERT_EQ(results.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(results[i], static_cast<int>(i * i));
    }
}

TEST(SweepRunner, RunExecutesEveryTaskExactlyOnce)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 40; ++i)
        tasks.push_back([&count] { ++count; });
    harness::SweepRunner runner(8);
    runner.run(std::move(tasks));
    EXPECT_EQ(count.load(), 40);
}

TEST(SweepRunner, LowestIndexExceptionWins)
{
    for (unsigned jobs : {1u, 8u}) {
        std::vector<std::function<int()>> tasks;
        for (int i = 0; i < 16; ++i) {
            tasks.push_back([i]() -> int {
                if (i == 3 || i == 11) {
                    throw std::runtime_error(
                        "task " + std::to_string(i));
                }
                return i;
            });
        }
        harness::SweepRunner runner(jobs);
        try {
            runner.map(std::move(tasks));
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &err) {
            // Same exception a sequential run would surface first.
            EXPECT_STREQ(err.what(), "task 3");
        }
    }
}

TEST(SweepRunner, SimulationTableIsIdenticalAcrossWorkerCounts)
{
    const std::string sequential = renderSweep(1);
    EXPECT_FALSE(sequential.empty());
    EXPECT_EQ(renderSweep(8), sequential);
    EXPECT_EQ(renderSweep(3), sequential);
}

TEST(SweepFailed, HangBeatsPostconditionAndEveryErrorIsPrinted)
{
    std::string printed;
    EXPECT_EQ(sweepFailedPrinting({{}, {}}, printed), harness::exit_ok);
    EXPECT_EQ(printed, "");

    EXPECT_EQ(sweepFailedPrinting({{}, {"a failed"}, {"b failed"}},
                                  printed),
              harness::exit_postcondition);
    EXPECT_EQ(printed, "error: a failed\nerror: b failed\n");

    // A hang wins over postcondition failures on either side of it.
    EXPECT_EQ(sweepFailedPrinting(
                  {{"a failed"}, {}, {"b hung", true}, {"c failed"}},
                  printed),
              harness::exit_hang);
    EXPECT_EQ(printed,
              "error: a failed\nerror: b hung\nerror: c failed\n");
}

TEST(OneShotPool, ReusesNodesAcrossBursts)
{
    sim::EventQueue eq;
    std::uint64_t fired = 0;
    for (int burst = 0; burst < 10; ++burst) {
        for (int i = 0; i < 100; ++i)
            eq.scheduleOneShot(eq.curTick() + 1 + i % 3,
                               [&fired] { ++fired; });
        eq.run();
        // Nothing is live between bursts...
        EXPECT_EQ(eq.oneShotNodesFree(), eq.oneShotNodesAllocated());
    }
    EXPECT_EQ(fired, 1000u);
    // ...and the peak never grew past the first burst's.
    EXPECT_LE(eq.oneShotNodesAllocated(), 100u);
}

TEST(OneShotPool, ReentrantScheduleFromInsideProcess)
{
    sim::EventQueue eq;
    std::vector<int> log;
    eq.scheduleOneShot(1, [&] {
        log.push_back(1);
        eq.scheduleOneShot(eq.curTick() + 1, [&] {
            log.push_back(2);
            eq.scheduleOneShot(eq.curTick() + 1,
                               [&] { log.push_back(3); });
        });
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.oneShotNodesFree(), eq.oneShotNodesAllocated());
}

TEST(OneShotPool, TeardownWithPendingOneShotIsClean)
{
    bool fired = false;
    {
        sim::EventQueue eq;
        eq.scheduleOneShot(100, [&fired] { fired = true; });
        // Destroy the queue with the event still pending: its slot
        // belongs to the queue, so nothing leaks and nothing asserts.
    }
    EXPECT_FALSE(fired);
}
