/**
 * @file
 * Simulator self-benchmark (google-benchmark): host-side throughput of
 * the event kernel, of whole-system simulation, and of the host-
 * parallel sweep runner, in simulated cycles and instructions per wall
 * second.  Not part of the paper reconstruction; used to track
 * simulator performance regressions.
 *
 * Besides the usual console output, the binary writes
 * BENCH_simperf.json (benchmark name -> items/sec) so successive PRs
 * have a machine-readable trajectory to compare against.
 *
 * Accepts --jobs=N (worker threads for BM_ParallelSweep; default
 * hardware concurrency) ahead of the standard --benchmark_* flags.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hh"
#include "harness/system.hh"
#include "sim/eventq.hh"
#include "sim/trace_sink.hh"
#include "workload/microbench.hh"

using namespace fenceless;

namespace
{

unsigned sweep_jobs = 0; // 0 = hardware concurrency

void
BM_EventQueue(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            eq.scheduleOneShot(eq.curTick() + 1 + (i % 7),
                               [&fired] { ++fired; });
        }
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
    // The peak of live one-shots, which sizes the queue's slot array,
    // is set by the first burst: this counter growing is an
    // allocation regression.
    state.counters["oneshot_nodes"] = static_cast<double>(
        eq.oneShotNodesAllocated());
    state.counters["near_pops"] = static_cast<double>(eq.nearPops());
    state.counters["far_pops"] = static_cast<double>(eq.farPops());
}
BENCHMARK(BM_EventQueue);

void
BM_FullSystem(benchmark::State &state)
{
    const bool speculative = state.range(0) != 0;
    std::uint64_t sim_insts = 0;
    std::uint64_t sim_cycles = 0;
    double oneshot_nodes = 0;
    for (auto _ : state) {
        harness::SystemConfig cfg;
        cfg.num_cores = 4;
        cfg.model = cpu::ConsistencyModel::TSO;
        if (speculative)
            cfg.withSpeculation();
        // Measure the bare simulation: the always-on recorder and
        // watchdog have their own benchmark (BM_FullSystemBlackbox).
        cfg.blackbox_records = 0;
        cfg.watchdog_interval = 0;
        workload::SpinlockCrit wl;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        const bool done = sys.run();
        benchmark::DoNotOptimize(done);
        sim_insts += sys.totalInstructions();
        sim_cycles += sys.runtimeCycles();
        // Queue health of the last run: the peak of live one-shots
        // bounds steady-state event allocation.
        oneshot_nodes = static_cast<double>(
            sys.context().eventq.oneShotNodesAllocated());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sim_insts));
    state.counters["sim_cycles"] =
        benchmark::Counter(static_cast<double>(sim_cycles),
                           benchmark::Counter::kIsRate);
    state.counters["oneshot_nodes"] = oneshot_nodes;
}
BENCHMARK(BM_FullSystem)->Arg(0)->Arg(1);

/**
 * Cost of the structured-trace hot path, disabled (Arg(0): the mask
 * test every instrumentation site pays even with tracing off) and
 * enabled (Arg(1): the full record append).  The sink is cleared every
 * batch so the run measures recording, not allocation growth.
 */
void
BM_TraceSink(benchmark::State &state)
{
    const bool enabled = state.range(0) != 0;
    trace::TraceSink sink;
    sink.setEnabled(enabled);
    const std::uint16_t comp = sink.registerComponent("bench");
    std::uint64_t events = 0;
    for (auto _ : state) {
        for (Tick t = 0; t < 4096; ++t) {
            if (sink.wants(trace::EventKind::CoreCommit))
                sink.record(comp, trace::EventKind::CoreCommit, t, t);
            ++events;
        }
        benchmark::DoNotOptimize(sink.size());
        if (sink.size() > trace::TraceSink::chunk_records)
            sink.clear();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TraceSink)->Arg(0)->Arg(1);

/**
 * Whole-system overhead of full tracing: the BM_FullSystem workload
 * with every event kind recorded.  Compare against BM_FullSystem/1
 * for the tracing-on cost; BM_FullSystem itself keeps measuring the
 * tracing-off path.
 */
void
BM_FullSystemTraced(benchmark::State &state)
{
    std::uint64_t sim_insts = 0;
    for (auto _ : state) {
        harness::SystemConfig cfg;
        cfg.num_cores = 4;
        cfg.model = cpu::ConsistencyModel::TSO;
        cfg.withSpeculation();
        cfg.withTracing();
        cfg.blackbox_records = 0; // isolate the tracing cost
        cfg.watchdog_interval = 0;
        workload::SpinlockCrit wl;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        const bool done = sys.run();
        benchmark::DoNotOptimize(done);
        sim_insts += sys.totalInstructions();
        state.counters["trace_events"] =
            static_cast<double>(sys.tracer().size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sim_insts));
}
BENCHMARK(BM_FullSystemTraced);

/**
 * Whole-system overhead of the waste-attribution profiler: the
 * BM_FullSystem/1 workload with per-PC, per-line and rollback
 * accounting on.  The regression guard holds this within 10% of
 * BM_FullSystem/1; BM_FullSystem itself keeps measuring the
 * profiler-off path (one null test per site).
 */
void
BM_FullSystemProfiled(benchmark::State &state)
{
    std::uint64_t sim_insts = 0;
    for (auto _ : state) {
        harness::SystemConfig cfg;
        cfg.num_cores = 4;
        cfg.model = cpu::ConsistencyModel::TSO;
        cfg.withSpeculation();
        cfg.withProfiling();
        cfg.blackbox_records = 0; // isolate the profiler cost
        cfg.watchdog_interval = 0;
        workload::SpinlockCrit wl;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        const bool done = sys.run();
        benchmark::DoNotOptimize(done);
        sim_insts += sys.totalInstructions();
        state.counters["profiled_pcs"] =
            static_cast<double>(sys.profile().pcs.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sim_insts));
}
BENCHMARK(BM_FullSystemProfiled);

/**
 * Whole-system overhead of per-request span tracing: the
 * BM_FullSystem/1 workload with 1-in-Arg misses traced end to end.
 * Arg(64) is the shipped default (what --tail-report enables); the
 * regression guard holds it within 5% of BM_FullSystem/1.  Arg(1)
 * traces every miss -- there the bound is the post-run span assembly,
 * which is O(traced misses) (sort + one heap span per miss), not the
 * recording hot path, so it scales with the sampling rate rather than
 * amortizing away; it gets its own looser guard as a
 * quadratic-blowup/regression tripwire.  BM_FullSystem itself keeps
 * measuring the tracing-off path (one null test per site).
 */
void
BM_FullSystemReqTrace(benchmark::State &state)
{
    const auto period = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t sim_insts = 0;
    for (auto _ : state) {
        harness::SystemConfig cfg;
        cfg.num_cores = 4;
        cfg.model = cpu::ConsistencyModel::TSO;
        cfg.withSpeculation();
        cfg.withTailTrace(period);
        cfg.blackbox_records = 0; // isolate the span-tracing cost
        cfg.watchdog_interval = 0;
        workload::SpinlockCrit wl;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        const bool done = sys.run();
        benchmark::DoNotOptimize(done);
        sim_insts += sys.totalInstructions();
        state.counters["traced_spans"] =
            static_cast<double>(sys.tailSpans().spans.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sim_insts));
}
BENCHMARK(BM_FullSystemReqTrace)->Arg(64)->Arg(1);

/**
 * Whole-system cost of the default-on incident-observability layer:
 * the BM_FullSystem/1 workload with the flight recorder and hang
 * watchdog at their defaults.  The regression guard holds this within
 * 5% of BM_FullSystem/1 -- the budget that lets the recorder stay on
 * in every run.
 */
void
BM_FullSystemBlackbox(benchmark::State &state)
{
    std::uint64_t sim_insts = 0;
    for (auto _ : state) {
        harness::SystemConfig cfg;
        cfg.num_cores = 4;
        cfg.model = cpu::ConsistencyModel::TSO;
        cfg.withSpeculation();
        // blackbox_records / watchdog_interval stay at their defaults.
        workload::SpinlockCrit wl;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        const bool done = sys.run();
        benchmark::DoNotOptimize(done);
        sim_insts += sys.totalInstructions();
        state.counters["ring_pushes"] =
            static_cast<double>(sys.tracer().ringPushes());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sim_insts));
}
BENCHMARK(BM_FullSystemBlackbox);

/**
 * The largest configuration the simulator supports: 64 cores on a 2D
 * mesh with an 8-bank directory (a 9x8 grid of network nodes).  Tracks
 * the host-side cost of per-hop routing and bank fan-out at full
 * scale; the regression guard keeps this from silently decaying as the
 * topology layer grows.
 */
void
BM_FullSystemMesh64(benchmark::State &state)
{
    std::uint64_t sim_insts = 0;
    std::uint64_t net_hops = 0;
    for (auto _ : state) {
        harness::SystemConfig cfg;
        cfg.num_cores = 64;
        cfg.model = cpu::ConsistencyModel::TSO;
        cfg.withDirBanks(8).withTopology(mem::Topology::Mesh);
        cfg.blackbox_records = 0; // measure the bare simulation
        cfg.watchdog_interval = 0;
        workload::LocalLockStream::Params wp;
        wp.iters = 8;
        workload::LocalLockStream wl(wp);
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        const bool done = sys.run();
        benchmark::DoNotOptimize(done);
        sim_insts += sys.totalInstructions();
        for (const auto &group : sys.stats().groups()) {
            if (group->name() == "network")
                net_hops = group->scalarCount("hops");
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sim_insts));
    state.counters["net_hops"] = static_cast<double>(net_hops);
}
BENCHMARK(BM_FullSystemMesh64)->Unit(benchmark::kMillisecond);

void
BM_ParallelSweep(benchmark::State &state)
{
    const unsigned batch = 8;
    std::uint64_t sim_insts = 0;
    harness::SweepRunner runner(sweep_jobs);
    for (auto _ : state) {
        std::vector<std::function<std::uint64_t()>> tasks;
        for (unsigned i = 0; i < batch; ++i) {
            tasks.push_back([]() -> std::uint64_t {
                harness::SystemConfig cfg;
                cfg.num_cores = 4;
                cfg.model = cpu::ConsistencyModel::TSO;
                cfg.blackbox_records = 0;
                cfg.watchdog_interval = 0;
                workload::SpinlockCrit wl;
                isa::Program prog = wl.build(cfg.num_cores);
                harness::System sys(cfg, prog);
                sys.run();
                return sys.totalInstructions();
            });
        }
        for (std::uint64_t insts : runner.map(std::move(tasks)))
            sim_insts += insts;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sim_insts));
    state.counters["jobs"] = static_cast<double>(runner.jobs());
}
// Real time: the main thread mostly waits on the pool, so CPU time
// would inflate items/s by the idle fraction.
BENCHMARK(BM_ParallelSweep)->Unit(benchmark::kMillisecond)->UseRealTime();

/**
 * Console output as usual, plus a capture of every run's items/sec for
 * the JSON trajectory file.
 */
struct CapturedRun
{
    std::string name;
    double items_per_second = 0;
    //!< every user counter (oneshot_nodes, sim_cycles, ...), sorted
    std::vector<std::pair<std::string, double>> counters;
};

class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred) {
                continue;
            }
            CapturedRun cap;
            cap.name = run.benchmark_name();
            for (const auto &[cname, counter] : run.counters) {
                if (cname == "items_per_second")
                    cap.items_per_second = counter;
                else
                    cap.counters.emplace_back(cname, counter.value);
            }
            std::sort(cap.counters.begin(), cap.counters.end());
            captured.push_back(std::move(cap));
        }
        ConsoleReporter::ReportRuns(reports);
    }

    std::vector<CapturedRun> captured;
};

void
writeJson(const std::vector<CapturedRun> &captured,
          const std::string &path)
{
    std::ofstream os(path);
    os << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < captured.size(); ++i) {
        const CapturedRun &cap = captured[i];
        os << "    {\"name\": \"" << cap.name
           << "\", \"items_per_second\": " << cap.items_per_second;
        if (!cap.counters.empty()) {
            os << ", \"counters\": {";
            for (std::size_t c = 0; c < cap.counters.size(); ++c) {
                os << "\"" << cap.counters[c].first << "\": "
                   << cap.counters[c].second
                   << (c + 1 < cap.counters.size() ? ", " : "");
            }
            os << "}";
        }
        os << "}" << (i + 1 < captured.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off our --jobs flag before google-benchmark sees argv.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            try {
                sweep_jobs = static_cast<unsigned>(
                    std::stoul(argv[i] + 7));
            } catch (const std::exception &) {
                std::cerr << "error: option --jobs expects a number, "
                             "got '" << (argv[i] + 7) << "'\n";
                return 1;
            }
        } else {
            args.push_back(argv[i]);
        }
    }
    int filtered_argc = static_cast<int>(args.size());
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               args.data())) {
        return 1;
    }

    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    writeJson(reporter.captured, "BENCH_simperf.json");
    benchmark::Shutdown();
    return 0;
}
