/**
 * @file
 * F1: the cost of baseline memory-ordering enforcement.  Runtime of
 * each workload under SC / TSO / RMO, normalized to RMO (the most
 * relaxed model).  Also breaks out the ordering-stall cycles.
 */

#include <iostream>

#include "bench/bench_common.hh"

using namespace fenceless;
using namespace fenceless::bench;

namespace
{

std::uint64_t
orderingStalls(harness::System &sys)
{
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < sys.numCores(); ++c) {
        const auto &g = sys.core(c).statGroup();
        total += g.scalarCount("stall_sc_load_order") +
                 g.scalarCount("stall_fence_drain") +
                 g.scalarCount("stall_amo_order");
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs);
    banner("F1", "baseline consistency-model cost (normalized runtime, "
                 "RMO = 1.00)");

    harness::Table table({"workload", "SC", "TSO", "RMO",
                          "SC ord-stall%", "TSO ord-stall%"});

    std::vector<std::function<Row()>> tasks;
    for (auto &wl : sharedSuite(2)) {
        tasks.push_back([wl]() -> Row {
            double cycles[3] = {};
            double stall_frac[3] = {};
            int i = 0;
            for (auto model : {cpu::ConsistencyModel::SC,
                               cpu::ConsistencyModel::TSO,
                               cpu::ConsistencyModel::RMO}) {
                harness::SystemConfig cfg = defaultConfig();
                cfg.model = model;
                MeasuredSystem m = measureSystem(*wl, cfg);
                if (!m.ok())
                    return {{}, m.error, m.hung};
                cycles[i] =
                    static_cast<double>(m.sys->runtimeCycles());
                stall_frac[i] = 100.0 * orderingStalls(*m.sys)
                                / (cycles[i] * cfg.num_cores);
                ++i;
            }
            return {{wl->name(),
                     harness::fmt(cycles[0] / cycles[2]),
                     harness::fmt(cycles[1] / cycles[2]), "1.00",
                     harness::fmt(stall_frac[0], 1),
                     harness::fmt(stall_frac[1], 1)},
                    ""};
        });
    }

    auto rows = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = sweepFailed(rows))
        return code;
    for (auto &row : rows)
        table.addRow(std::move(row.cells));
    table.print(std::cout);
    std::cout << "\nShape to observe: SC >= TSO >= RMO; the gap is "
                 "ordering-stall time\n(SC pays at every load above a "
                 "non-empty store buffer, TSO at fences\nand atomics, "
                 "RMO almost never).\n";
    return 0;
}
