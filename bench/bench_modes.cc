/**
 * @file
 * F3: speculate-on-demand vs continuous speculation under SC.
 * Continuous mode decouples ordering enforcement entirely (fewer, larger
 * epochs) at the cost of a bigger rollback window.
 */

#include <iostream>

#include "bench/bench_common.hh"

using namespace fenceless;
using namespace fenceless::bench;

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    banner("F3", "on-demand vs continuous speculation (SC, runtime "
                 "normalized to baseline SC)");

    harness::Table table({"workload", "base", "on-demand", "continuous",
                          "od epochs", "cont epochs", "od rlbk",
                          "cont rlbk"});

    std::vector<std::function<Row()>> tasks;
    for (auto &wl : sharedSuite(2)) {
        tasks.push_back([wl]() -> Row {
            double base_cycles = 0;
            double cycles[2] = {};
            std::uint64_t epochs[2] = {};
            std::uint64_t rollbacks[2] = {};

            {
                harness::SystemConfig cfg = defaultConfig();
                cfg.model = cpu::ConsistencyModel::SC;
                harness::Run run = harness::runWorkload(*wl, cfg);
                if (!run.ok())
                    return {run};
                base_cycles =
                    static_cast<double>(run.sys->runtimeCycles());
            }
            int i = 0;
            for (auto mode : {spec::SpecMode::OnDemand,
                              spec::SpecMode::Continuous}) {
                harness::SystemConfig cfg = defaultConfig();
                cfg.model = cpu::ConsistencyModel::SC;
                cfg.spec.mode = mode;
                harness::Run run = harness::runWorkload(*wl, cfg);
                if (!run.ok())
                    return {run};
                cycles[i] =
                    static_cast<double>(run.sys->runtimeCycles());
                for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
                    epochs[i] +=
                        run.sys->specController(c)->epochsStarted();
                    rollbacks[i] +=
                        run.sys->specController(c)->rollbacks();
                }
                ++i;
            }
            return {{},
                    {wl->name(), "1.00",
                     harness::fmt(cycles[0] / base_cycles),
                     harness::fmt(cycles[1] / base_cycles),
                     std::to_string(epochs[0]),
                     std::to_string(epochs[1]),
                     std::to_string(rollbacks[0]),
                     std::to_string(rollbacks[1])}};
        });
    }

    auto rows = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = harness::sweepFailed(rows))
        return code;
    for (auto &row : rows)
        table.addRow(std::move(row.cells));
    table.print(std::cout);
    std::cout << "\nShape: both modes beat the baseline; continuous "
                 "uses far fewer (longer)\nepochs and risks more "
                 "rollback work per conflict.\n";
    return 0;
}
