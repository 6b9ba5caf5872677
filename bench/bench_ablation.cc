/**
 * @file
 * A1 (ablation): the modelling choices DESIGN.md calls out, measured.
 *
 *  (a) store-buffer ownership prefetching -- without it the baseline
 *      serializes store misses and speculation would get credit for an
 *      artifact of the model;
 *  (b) relaxed-drain overlap (RMO max_inflight) -- the source of RMO's
 *      drain-bandwidth advantage;
 *  (c) rollback backoff cap -- what contains conflict thrashing.
 *
 * All three sections' sweep points run as one parallel batch; the
 * tables are rendered from the ordered results afterwards.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::bench;

namespace
{

/** One ablation point: cycles plus a per-section auxiliary counter. */
struct Meas : harness::RunError
{
    double cycles = 0;
    std::uint64_t aux = 0; //!< prefetches (a) / rollbacks (c)
};

workload::LocalLockStream::Params
deepStreamParams()
{
    workload::LocalLockStream::Params p;
    p.iters = 96;
    p.stream_stores = 8;
    return p;
}

workload::Dekker::Params
dekkerParams()
{
    workload::Dekker::Params p;
    p.iters = 400;
    return p;
}

Meas
runPrefetchPoint(unsigned depth)
{
    Meas out;
    harness::SystemConfig cfg = defaultConfig();
    cfg.sb_prefetch_depth = depth;
    workload::LocalLockStream wl(deepStreamParams());
    harness::Run run = harness::runWorkload(wl, cfg);
    if (!run.ok())
        return {run};
    out.cycles = static_cast<double>(run.sys->runtimeCycles());
    for (std::uint32_t c = 0; c < cfg.num_cores; ++c)
        out.aux += run.sys->l1(c).statGroup().scalarCount("prefetches");
    return out;
}

Meas
runInflightPoint(unsigned inflight)
{
    Meas out;
    harness::SystemConfig cfg = defaultConfig();
    cfg.model = cpu::ConsistencyModel::RMO;
    cfg.sb_max_inflight = inflight;
    cfg.sb_prefetch_depth = 0; // isolate the overlap effect
    workload::LocalLockStream wl(deepStreamParams());
    harness::Run run = harness::runWorkload(wl, cfg);
    if (!run.ok())
        return {run};
    out.cycles = static_cast<double>(run.sys->runtimeCycles());
    return out;
}

Meas
runBackoffPoint(unsigned cap)
{
    Meas out;
    harness::SystemConfig cfg = defaultConfig();
    cfg.model = cpu::ConsistencyModel::SC;
    if (cap != 0) {
        cfg.withSpeculation();
        cfg.spec.max_cooldown = cap;
    }
    workload::Dekker wl(dekkerParams());
    harness::Run run = harness::runWorkload(wl, cfg);
    if (!run.ok())
        return {run};
    out.cycles = static_cast<double>(run.sys->runtimeCycles());
    out.aux = run.sys->totalRollbacks();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    banner("A1", "ablations of the model's design choices");

    const unsigned depths[] = {0, 1, 2, 4, 8};
    const unsigned inflights[] = {1, 2, 4, 8};
    const unsigned caps[] = {1, 4, 16, 64, 256};

    // One batch: section (a) points, then (b), then (c)'s baseline
    // (cap == 0 encodes "speculation off") and capped points.
    std::vector<std::function<Meas()>> tasks;
    for (unsigned depth : depths)
        tasks.push_back([depth] { return runPrefetchPoint(depth); });
    for (unsigned inflight : inflights)
        tasks.push_back(
            [inflight] { return runInflightPoint(inflight); });
    tasks.push_back([] { return runBackoffPoint(0); });
    for (unsigned cap : caps)
        tasks.push_back([cap] { return runBackoffPoint(cap); });

    auto results = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = harness::sweepFailed(results))
        return code;

    std::size_t idx = 0;

    // (a) ownership prefetch depth, TSO baseline, store-heavy workload
    {
        std::cout << "-- (a) store ownership prefetch depth "
                     "(local-locks, TSO baseline, cycles) --\n";
        harness::Table table({"prefetch depth", "cycles",
                              "prefetches"});
        for (unsigned depth : depths) {
            const Meas &m = results[idx++];
            table.addRow({std::to_string(depth),
                          harness::fmt(m.cycles, 0),
                          std::to_string(m.aux)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    // (b) relaxed drain overlap, RMO baseline
    {
        std::cout << "-- (b) RMO drain overlap (local-locks, RMO "
                     "baseline, cycles) --\n";
        harness::Table table({"max inflight drains", "cycles"});
        for (unsigned inflight : inflights) {
            const Meas &m = results[idx++];
            table.addRow({std::to_string(inflight),
                          harness::fmt(m.cycles, 0)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    // (c) rollback backoff cap under heavy conflicts (dekker)
    {
        std::cout << "-- (c) rollback backoff cap (dekker, IF-SC; "
                     "baseline SC = 1.00) --\n";
        harness::Table table({"max cooldown", "runtime vs base",
                              "rollbacks"});
        const double base = results[idx++].cycles;
        for (unsigned cap : caps) {
            const Meas &m = results[idx++];
            table.addRow({std::to_string(cap),
                          harness::fmt(m.cycles / base),
                          std::to_string(m.aux)});
        }
        table.print(std::cout);
    }

    std::cout << "\nShapes: (a) deeper prefetch removes serialized "
                 "store misses from the\nbaseline; (b) more overlap "
                 "speeds RMO's drain until bandwidth saturates;\n(c) "
                 "a larger backoff cap contains Dekker's conflict "
                 "storm.\n";
    return 0;
}
