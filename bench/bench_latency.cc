/**
 * @file
 * F6: sensitivity to memory latency.  Longer miss latencies deepen the
 * required speculation (stores sit in the buffer longer); block
 * granularity keeps absorbing it, so the speedup of speculation over
 * the baseline *grows* with latency.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "sim/reqtrace.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::bench;

namespace
{

using Make = std::function<workload::WorkloadPtr()>;

/** One (workload, latency) point: base + speculative runs. */
struct Meas : harness::RunError
{
    double speedup = 0;
    std::uint64_t max_stores_per_epoch = 0;
    // Request-lifetime attribution of the speculative run's misses:
    // mean cycles spent in each phase (L1 miss issue to fill install,
    // directory queueing behind same-block transactions, directory
    // service, and per-message network transit).
    double miss_latency = 0;
    double dir_queue = 0;
    double dir_service = 0;
    double net_transit = 0;
    // Span-based critical-path breakdown (tail_sample=1 traces every
    // miss): percentage of all traced-miss cycles each stage owns,
    // plus the number of tail outliers (spans slower than e2e p99).
    double share_req_net = 0;
    double share_dir = 0;  //!< dir_queue + dir_access
    double share_dram = 0;
    double share_reply = 0;
    Tick span_p999 = 0;
    std::uint64_t outliers = 0;
};

/** Percent of traced-miss cycles owned by @p stage. */
double
stageShare(const reqtrace::TailAttribution &at, reqtrace::Stage stage)
{
    if (at.e2e_cycles == 0)
        return 0.0;
    // rows holds only the stages that appeared, in stage order -- find
    // ours rather than indexing by enum value.
    for (const reqtrace::StageRow &row : at.rows) {
        if (row.stage == stage)
            return 100.0 * static_cast<double>(row.cycles)
                   / static_cast<double>(at.e2e_cycles);
    }
    return 0.0;
}

Meas
runPoint(const Make &make, Cycles dram_latency)
{
    Meas out;
    harness::SystemConfig cfg = defaultConfig();
    cfg.model = cpu::ConsistencyModel::SC;
    cfg.l2.dram_latency = dram_latency;
    auto base_wl = make();
    harness::Run base = harness::runWorkload(*base_wl, cfg);
    if (!base.ok())
        return {base};
    const double base_cycles =
        static_cast<double>(base.sys->runtimeCycles());
    base.sys.reset();

    cfg.withSpeculation();
    cfg.withTailTrace(1); // span-trace every miss of the measured run
    auto wl = make();
    harness::Run run = harness::runWorkload(*wl, cfg);
    if (!run.ok())
        return {run};
    out.speedup =
        base_cycles / static_cast<double>(run.sys->runtimeCycles());
    for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
        out.max_stores_per_epoch =
            std::max(out.max_stores_per_epoch,
                     run.sys->specController(c)->maxStoresPerEpoch());
    }
    out.miss_latency = meanPhaseLatency(*run.sys, "l1_", "miss_latency");
    out.dir_queue = meanPhaseLatency(*run.sys, "l2dir",
                                     "txn_queue_wait");
    out.dir_service = meanPhaseLatency(*run.sys, "l2dir", "txn_service");
    out.net_transit = meanPhaseLatency(*run.sys, "network",
                                       "msg_latency");
    const reqtrace::TailAttribution &at = run.sys->tailAttribution();
    out.share_req_net = stageShare(at, reqtrace::Stage::ReqNet);
    out.share_dir = stageShare(at, reqtrace::Stage::DirQueue) +
                    stageShare(at, reqtrace::Stage::DirAccess);
    out.share_dram = stageShare(at, reqtrace::Stage::Dram);
    out.share_reply = stageShare(at, reqtrace::Stage::ReplyNet);
    out.span_p999 = at.e2e_p999;
    out.outliers = at.tail_spans;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    banner("F6", "speedup of IF-SC over SC vs DRAM latency "
                 "(8 cores)");

    const Cycles latencies[] = {40, 80, 160, 320};
    const unsigned num_lats = 4;

    std::vector<std::string> headers{"workload"};
    for (Cycles l : latencies)
        headers.push_back(std::to_string(l) + "cy");
    headers.push_back("max stores/epoch@320");
    headers.push_back("miss@320");
    headers.push_back("dirQ@320");
    headers.push_back("dirSvc@320");
    headers.push_back("net@320");
    headers.push_back("rqnet%@320");
    headers.push_back("dir%@320");
    headers.push_back("dram%@320");
    headers.push_back("reply%@320");
    headers.push_back("p99.9@320");
    headers.push_back("outliers@320");
    harness::Table table(std::move(headers));

    workload::LocalLockStream::Params deep;
    deep.iters = 96;
    deep.stream_stores = 8;
    const Make entries[] = {
        [] { return std::make_unique<workload::LocalLockStream>(); },
        [deep] {
            return std::make_unique<workload::LocalLockStream>(deep);
        },
        [] { return std::make_unique<workload::Stencil2D>(); },
    };

    // One task per (workload, latency) point.
    std::vector<std::function<Meas()>> tasks;
    for (const Make &make : entries) {
        for (Cycles lat : latencies)
            tasks.push_back([make, lat] { return runPoint(make, lat); });
    }

    auto results = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = harness::sweepFailed(results))
        return code;

    std::size_t idx = 0;
    for (const Make &make : entries) {
        std::vector<std::string> row{make()->name()};
        const Meas *at_max = nullptr;
        for (unsigned i = 0; i < num_lats; ++i) {
            const Meas &m = results[idx++];
            row.push_back(harness::fmt(m.speedup));
            if (i == num_lats - 1)
                at_max = &m;
        }
        row.push_back(std::to_string(at_max->max_stores_per_epoch));
        row.push_back(harness::fmt(at_max->miss_latency, 1));
        row.push_back(harness::fmt(at_max->dir_queue, 1));
        row.push_back(harness::fmt(at_max->dir_service, 1));
        row.push_back(harness::fmt(at_max->net_transit, 1));
        row.push_back(harness::fmt(at_max->share_req_net, 1));
        row.push_back(harness::fmt(at_max->share_dir, 1));
        row.push_back(harness::fmt(at_max->share_dram, 1));
        row.push_back(harness::fmt(at_max->share_reply, 1));
        row.push_back(std::to_string(at_max->span_p999));
        row.push_back(std::to_string(at_max->outliers));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nShape: the speedup grows with latency (more stall "
                 "time to hide), and the\nrequired speculation depth "
                 "grows with it -- the case for depth-independent\n"
                 "storage.  The miss columns attribute the mean miss "
                 "at 320cy to its phases:\nend-to-end L1 miss latency, "
                 "directory queueing, directory service, and\nper-"
                 "message network transit.  The %-columns are the "
                 "span-traced critical-path\nbreakdown (every miss "
                 "traced end to end): the share of traced cycles each\n"
                 "stage owns, the p99.9 end-to-end span latency, and "
                 "how many spans sat\nabove the p99 (the tail "
                 "outliers).\n";
    return 0;
}
