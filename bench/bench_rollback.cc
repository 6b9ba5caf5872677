/**
 * @file
 * F5: rollback behaviour vs sharing contention.  Sweeping the number
 * of bins in the contended workloads changes the probability that a
 * remote write conflicts with a live speculation tag; the table reports
 * rollback rate (per 1k instructions), discarded work, and the runtime
 * effect.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::bench;

namespace
{

struct Point
{
    std::string label;
    std::function<workload::WorkloadPtr()> make;
};

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    banner("F5", "rollbacks vs contention (on-demand SC, 8 cores)");

    std::vector<Point> points;
    // Sweeping the bin count sweeps the probability that another
    // core's write lands on a block this core speculatively touched.
    for (unsigned bins : {2, 4, 8, 16, 64, 256}) {
        workload::IrregularUpdate::Params p;
        p.updates = 512;
        p.bins = bins;
        points.push_back(
            {"irregular/" + std::to_string(bins) + "bins", [p] {
                 return std::make_unique<workload::IrregularUpdate>(p);
             }});
    }
    for (std::uint64_t iters : {200, 400}) {
        workload::Dekker::Params p;
        p.iters = iters;
        points.push_back({"dekker/" + std::to_string(iters), [p] {
                              return std::make_unique<
                                  workload::Dekker>(p);
                          }});
    }

    harness::Table table({"workload", "rollbacks/1k-inst",
                          "discarded-inst%", "epochs", "speedup vs "
                          "base"});

    std::vector<std::function<Row()>> tasks;
    for (const auto &pt : points) {
        tasks.push_back([pt]() -> Row {
            harness::SystemConfig base_cfg = defaultConfig();
            base_cfg.model = cpu::ConsistencyModel::SC;
            auto base_wl = pt.make();
            harness::Run base = harness::runWorkload(*base_wl, base_cfg);
            if (!base.ok())
                return {base};
            const double base_cycles =
                static_cast<double>(base.sys->runtimeCycles());
            base.sys.reset();

            harness::SystemConfig cfg = base_cfg;
            cfg.withSpeculation();
            auto wl = pt.make();
            harness::Run run = harness::runWorkload(*wl, cfg);
            if (!run.ok())
                return {run};

            std::uint64_t rollbacks = 0, epochs = 0, discarded = 0;
            std::uint64_t insts = run.sys->totalInstructions();
            for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
                auto *ctrl = run.sys->specController(c);
                rollbacks += ctrl->rollbacks();
                epochs += ctrl->epochsStarted();
                discarded += ctrl->statGroup().scalarCount(
                    "discarded_insts");
            }
            return {{},
                    {pt.label,
                     harness::fmt(1000.0 * rollbacks / insts, 3),
                     harness::fmt(
                         100.0 * discarded / (insts + discarded), 2),
                     std::to_string(epochs),
                     harness::fmt(base_cycles
                                  / static_cast<double>(
                                      run.sys->runtimeCycles()))}};
        });
    }

    auto rows = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = harness::sweepFailed(rows))
        return code;
    for (auto &row : rows)
        table.addRow(std::move(row.cells));
    table.print(std::cout);
    std::cout << "\nShape: speedup grows as contention falls (more "
                 "bins).  At extreme\ncontention the rollback backoff "
                 "disables speculation (few epochs,\nspeedup ~1); the "
                 "rollback *rate* peaks at moderate contention where\n"
                 "speculation keeps trying.\n";
    return 0;
}
