/**
 * @file
 * T3: dedicated speculative-state storage vs speculation depth.
 *
 * Block granularity needs two tag bits per L1 block plus one register
 * checkpoint -- independent of how deep the speculation runs.  Per-store
 * designs need a store-queue entry per speculative store (and a CAM
 * entry per tracked load): storage grows linearly with depth.  The
 * second table reports the depths the workloads actually reach
 * (measured maxima per epoch), showing why a fixed per-store budget
 * must either be large or stall.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "core/spec_controller.hh"

using namespace fenceless;
using namespace fenceless::bench;

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    banner("T3", "speculative storage vs speculation depth");

    {
        harness::Table table({"supported depth (stores)",
                              "per-store bytes", "block-granularity "
                              "bytes"});
        const harness::SystemConfig cfg = defaultConfig();
        const std::uint64_t l1_blocks =
            cfg.l1.size / cfg.l1.block_size;
        for (std::uint64_t depth : {4, 8, 16, 32, 64, 128, 256, 512}) {
            table.addRow(
                {std::to_string(depth),
                 std::to_string(spec::StorageModel::perStoreBytes(
                     depth, depth * 2)),
                 std::to_string(
                     spec::StorageModel::blockGranularityBytes(
                         l1_blocks))});
        }
        table.print(std::cout);
        std::cout << "\nBlock granularity: "
                  << spec::StorageModel::blockGranularityBytes(
                         l1_blocks)
                  << " bytes per core ('approximately one kilobyte'), "
                     "constant in depth.\n\n";
    }

    std::cout << "--- measured speculation depth per epoch (on-demand, "
                 "SC, 8 cores) ---\n\n";
    harness::Table table({"workload", "max stores/epoch",
                          "max SW blocks", "max SR blocks",
                          "mean epoch insts"});

    std::vector<std::function<Row()>> tasks;
    for (auto &wl : sharedSuite(2)) {
        tasks.push_back([wl]() -> Row {
            harness::SystemConfig cfg = defaultConfig();
            cfg.model = cpu::ConsistencyModel::SC;
            cfg.withSpeculation();
            harness::Run run = harness::runWorkload(*wl, cfg);
            if (!run.ok())
                return {run};

            std::uint64_t max_stores = 0, max_sw = 0, max_sr = 0;
            double insts_sum = 0;
            for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
                auto *ctrl = run.sys->specController(c);
                max_stores = std::max(max_stores,
                                      ctrl->maxStoresPerEpoch());
                max_sw = std::max(max_sw, ctrl->maxSwBlocks());
                max_sr = std::max(max_sr, ctrl->maxSrBlocks());
                const auto *d = dynamic_cast<const
                    statistics::Distribution *>(
                    ctrl->statGroup().find("epoch_insts"));
                insts_sum += d ? d->mean() : 0.0;
            }
            return {{},
                    {wl->name(), std::to_string(max_stores),
                     std::to_string(max_sw), std::to_string(max_sr),
                     harness::fmt(insts_sum / cfg.num_cores, 1)}};
        });
    }

    auto rows = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = harness::sweepFailed(rows))
        return code;
    for (auto &row : rows)
        table.addRow(std::move(row.cells));
    table.print(std::cout);
    return 0;
}
