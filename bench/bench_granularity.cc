/**
 * @file
 * F4: the bounded per-store comparator stalls once its speculative
 * store queue fills; block granularity does not.  Runtime (normalized
 * to block granularity) vs per-store queue capacity K, plus the stall
 * counts, for the deep-speculation workloads.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::bench;

namespace
{

/** Factory, so every sweep task builds its own workload instance. */
using Make = std::function<workload::WorkloadPtr()>;

/** One (workload, granularity-variant) run. */
struct Meas : harness::RunError
{
    double cycles = 0;
    std::uint64_t stalls = 0;
};

Meas
runOne(const Make &make, spec::Granularity g, unsigned k)
{
    Meas out;
    harness::SystemConfig cfg = defaultConfig();
    cfg.model = cpu::ConsistencyModel::SC;
    cfg.l2.dram_latency = 160; // deepen natural epochs
    cfg.spec.mode = spec::SpecMode::OnDemand;
    cfg.spec.granularity = g;
    cfg.spec.ps_store_queue = k;
    cfg.spec.ps_load_cam = 2 * k;
    auto wl = make();
    harness::Run run = harness::runWorkload(*wl, cfg);
    if (!run.ok())
        return {run};
    out.cycles = static_cast<double>(run.sys->runtimeCycles());
    for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
        out.stalls += run.sys->specController(c)->statGroup()
                          .scalarCount("spec_limit_stalls");
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    banner("F4", "per-store queue capacity vs block granularity "
                 "(on-demand SC, 160-cycle DRAM, runtime normalized "
                 "to block granularity)");

    const unsigned capacities[] = {2, 4, 8, 16, 32};
    const unsigned num_caps = 5;

    std::vector<std::string> headers{"workload", "block"};
    for (unsigned k : capacities)
        headers.push_back("K=" + std::to_string(k));
    headers.push_back("stalls@K=2");
    harness::Table table(std::move(headers));

    workload::LocalLockStream::Params deep;
    deep.iters = 96;
    deep.stream_stores = 8;
    const Make entries[] = {
        [deep] {
            return std::make_unique<workload::LocalLockStream>(deep);
        },
        [] { return std::make_unique<workload::BarrierPhase>(); },
        [] { return std::make_unique<workload::Stencil2D>(); },
    };

    // One task per (workload, variant): variant 0 is the block-
    // granularity reference, 1..num_caps the per-store capacities.
    std::vector<std::function<Meas()>> tasks;
    for (const Make &make : entries) {
        tasks.push_back(
            [make] { return runOne(make, spec::Granularity::Block,
                                   16); });
        for (unsigned k : capacities) {
            tasks.push_back([make, k] {
                return runOne(make, spec::Granularity::PerStore, k);
            });
        }
    }

    auto results = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = harness::sweepFailed(results))
        return code;

    std::size_t idx = 0;
    for (const Make &make : entries) {
        const Meas &block = results[idx++];
        std::vector<std::string> row{make()->name(), "1.00"};
        std::uint64_t stalls_at_2 = 0;
        for (unsigned i = 0; i < num_caps; ++i) {
            const Meas &ps = results[idx++];
            row.push_back(harness::fmt(ps.cycles / block.cycles));
            if (capacities[i] == 2)
                stalls_at_2 = ps.stalls;
        }
        row.push_back(std::to_string(stalls_at_2));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nShape: small K stalls (runtime > 1); large K "
                 "converges to block\ngranularity -- but its storage "
                 "grows linearly (Table T3) while the\nblock design "
                 "stays at ~1 KB.\n";
    return 0;
}
