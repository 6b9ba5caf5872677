/**
 * @file
 * T2: workload characterization -- how hard each benchmark leans on the
 * ordering points the mechanism targets (fences, atomics per 1k
 * instructions), plus store-buffer pressure and L1 miss rates.
 */

#include <iostream>

#include "bench/bench_common.hh"

using namespace fenceless;
using namespace fenceless::bench;

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    banner("T2", "workload characterization (8 cores, baseline TSO)");

    harness::Table table({"workload", "kinsts", "fences/1k",
                          "atomics/1k", "sb-occ", "L1 miss%",
                          "cycles/inst"});

    std::vector<std::function<Row()>> tasks;
    for (auto &wl : sharedSuite(2)) {
        tasks.push_back([wl]() -> Row {
            harness::SystemConfig cfg = defaultConfig();
            MeasuredSystem m = measureSystem(*wl, cfg);
            if (!m.ok())
                return {{}, m.error, m.hung};
            harness::System &sys = *m.sys;

            std::uint64_t insts = 0, fences = 0, atomics = 0;
            std::uint64_t l1_hits = 0, l1_misses = 0;
            double occ_sum = 0;
            for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
                const auto &cg = sys.core(c).statGroup();
                insts += cg.scalarCount("instructions");
                fences += cg.scalarCount("fences_full") +
                          cg.scalarCount("fences_acquire") +
                          cg.scalarCount("fences_release");
                atomics += cg.scalarCount("amos");
                const auto *occ = dynamic_cast<const
                    statistics::Distribution *>(
                    cg.find("sb_occupancy"));
                occ_sum += occ ? occ->mean() : 0.0;
                const auto &lg = sys.l1(c).statGroup();
                l1_hits += lg.scalarCount("hits");
                l1_misses += lg.scalarCount("misses");
            }
            const double accesses =
                static_cast<double>(l1_hits + l1_misses);
            return {{wl->name(), harness::fmt(insts / 1000.0, 1),
                     harness::fmt(1000.0 * fences / insts, 2),
                     harness::fmt(1000.0 * atomics / insts, 2),
                     harness::fmt(occ_sum / cfg.num_cores, 2),
                     harness::fmt(
                         accesses ? 100.0 * l1_misses / accesses : 0,
                         2),
                     harness::fmt(static_cast<double>(
                                      sys.runtimeCycles())
                                  * cfg.num_cores / insts, 2)},
                    ""};
        });
    }

    auto rows = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = sweepFailed(rows))
        return code;
    for (auto &row : rows)
        table.addRow(std::move(row.cells));
    table.print(std::cout);
    std::cout << "\nEvery workload exercises fences and/or atomics: "
                 "these are the ordering\npoints fence speculation "
                 "targets.\n";
    return 0;
}
