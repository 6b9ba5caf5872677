/**
 * @file
 * F9: scalability.  Speedup of fence speculation over the baseline as
 * the core count grows: conflicts become more likely, but so does the
 * ordering-stall time the mechanism removes.  The conventional
 * directory protocol needs no changes at any scale.
 *
 * F9b extends the sweep past the crossbar: 16/32/64 cores on each NoC
 * topology with an 8-bank directory.  The speculation win must survive
 * per-hop latency -- a mechanism that only pays off on a flat network
 * would not be worth building.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::bench;

namespace
{

using Make = std::function<workload::WorkloadPtr()>;

/** One (workload, core-count) point: base + speculative runs. */
struct Meas : harness::RunError
{
    bool skipped = false; //!< below the workload's minThreads
    double speedup = 0;
    std::uint64_t rollbacks = 0;
};

/** One (topology, core-count) point of the F9b NoC sweep. */
struct NocMeas : harness::RunError
{
    double speedup = 0;
    double hops_per_msg = 0;
    std::uint64_t base_cycles = 0;
    std::uint64_t spec_cycles = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t msgs = 0;
    std::uint64_t hops = 0;
    std::uint64_t links_used = 0;
    std::uint64_t hot_link_msgs = 0;
    std::uint64_t hot_link_busy = 0;
};

/** A JSON double: %.6g is plenty for speedups and never locale-y. */
std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv, harness::Options::Jobs |
                                      harness::Options::SweepJson);
    banner("F9", "IF-SC speedup over SC vs core count");

    const std::uint32_t core_counts[] = {1, 2, 4, 8, 16};
    const unsigned num_counts = 5;

    std::vector<std::string> headers{"workload"};
    for (auto c : core_counts)
        headers.push_back(std::to_string(c) + "c");
    headers.push_back("rollbacks@16c");
    harness::Table table(std::move(headers));

    const Make entries[] = {
        [] { return std::make_unique<workload::LocalLockStream>(); },
        [] { return std::make_unique<workload::Stencil2D>(); },
        [] { return std::make_unique<workload::SpinlockCrit>(); },
    };

    // One task per (workload, core count) point.
    std::vector<std::function<Meas()>> tasks;
    for (const Make &make : entries) {
        for (std::uint32_t cores : core_counts) {
            tasks.push_back([make, cores]() -> Meas {
                Meas out;
                auto base_wl = make();
                if (cores < base_wl->minThreads()) {
                    out.skipped = true;
                    return out;
                }
                harness::SystemConfig cfg = defaultConfig(cores);
                cfg.model = cpu::ConsistencyModel::SC;
                harness::Run base = harness::runWorkload(*base_wl, cfg);
                if (!base.ok())
                    return {base};
                const double base_cycles =
                    static_cast<double>(base.sys->runtimeCycles());
                base.sys.reset();

                cfg.withSpeculation();
                auto wl = make();
                harness::Run run = harness::runWorkload(*wl, cfg);
                if (!run.ok())
                    return {run};
                out.speedup = base_cycles
                    / static_cast<double>(run.sys->runtimeCycles());
                out.rollbacks = run.sys->totalRollbacks();
                return out;
            });
        }
    }

    auto results = harness::SweepRunner(opts.jobs()).map(std::move(tasks));
    if (int code = harness::sweepFailed(results))
        return code;

    std::size_t idx = 0;
    for (const Make &make : entries) {
        std::vector<std::string> row{make()->name()};
        std::uint64_t rollbacks_at_16 = 0;
        for (unsigned i = 0; i < num_counts; ++i) {
            const Meas &m = results[idx++];
            if (m.skipped) {
                row.push_back("-");
                continue;
            }
            row.push_back(harness::fmt(m.speedup));
            if (core_counts[i] == 16)
                rollbacks_at_16 = m.rollbacks;
        }
        row.push_back(std::to_string(rollbacks_at_16));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nShape: the speedup holds (or grows) with core "
                 "count; rollbacks rise\nwith sharing but stay far "
                 "cheaper than the stalls removed.\n";

    // ---- F9b: core count x NoC topology, banked directory ----------
    banner("F9b", "IF-SC speedup vs NoC topology (8-bank directory)");

    const mem::Topology topos[] = {mem::Topology::Crossbar,
                                   mem::Topology::Ring,
                                   mem::Topology::Mesh};
    const std::uint32_t noc_cores[] = {16, 32, 64};

    harness::Table noc_table(
        {"topology", "16c", "32c", "64c", "hops/msg@64c"});

    std::vector<std::function<NocMeas()>> noc_tasks;
    for (mem::Topology topo : topos) {
        for (std::uint32_t cores : noc_cores) {
            noc_tasks.push_back([topo, cores]() -> NocMeas {
                NocMeas out;
                // Lock-local streaming keeps the 64-core points
                // tractable while still crossing every bank.
                workload::LocalLockStream::Params wp;
                wp.iters = 16;
                harness::SystemConfig cfg = defaultConfig(cores);
                cfg.model = cpu::ConsistencyModel::SC;
                cfg.withDirBanks(8).withTopology(topo);
                workload::LocalLockStream base_wl(wp);
                harness::Run base = harness::runWorkload(base_wl, cfg);
                if (!base.ok())
                    return {base};
                out.base_cycles = base.sys->runtimeCycles();
                base.sys.reset();

                cfg.withSpeculation();
                workload::LocalLockStream wl(wp);
                harness::Run run = harness::runWorkload(wl, cfg);
                if (!run.ok())
                    return {run};
                out.spec_cycles = run.sys->runtimeCycles();
                out.speedup =
                    static_cast<double>(out.base_cycles)
                    / static_cast<double>(out.spec_cycles);
                out.rollbacks = run.sys->totalRollbacks();
                for (const auto &group : run.sys->stats().groups()) {
                    if (group->name() != "network")
                        continue;
                    out.msgs = group->scalarCount("msgs");
                    out.hops = group->scalarCount("hops");
                    out.links_used = group->scalarCount("links_used");
                    out.hot_link_msgs =
                        group->scalarCount("hot_link_msgs");
                    out.hot_link_busy =
                        group->scalarCount("hot_link_busy");
                    if (out.msgs > 0) {
                        out.hops_per_msg =
                            static_cast<double>(out.hops)
                            / static_cast<double>(out.msgs);
                    }
                }
                return out;
            });
        }
    }

    auto noc_results =
        harness::SweepRunner(opts.jobs()).map(std::move(noc_tasks));
    if (int code = harness::sweepFailed(noc_results))
        return code;

    idx = 0;
    for (mem::Topology topo : topos) {
        std::vector<std::string> row{mem::topologyName(topo)};
        double hops_at_64 = 0;
        for (std::uint32_t cores : noc_cores) {
            const NocMeas &m = noc_results[idx++];
            row.push_back(harness::fmt(m.speedup));
            if (cores == 64)
                hops_at_64 = m.hops_per_msg;
        }
        row.push_back(harness::fmt(hops_at_64));
        noc_table.addRow(std::move(row));
    }
    noc_table.print(std::cout);
    std::cout << "\nShape: speculation keeps paying on multi-hop "
                 "NoCs; the mesh needs fewer\nhops per message than "
                 "the ring at 64 cores.\n";

    // One JSON object per F9b sweep point for fl_report --sweep-json:
    // the deterministic simulated counters only, never host timings.
    if (const std::string path = opts.sweepJson(); !path.empty()) {
        auto write = [&](std::ostream &os) {
            std::size_t i = 0;
            for (mem::Topology topo : topos) {
                for (std::uint32_t cores : noc_cores) {
                    const NocMeas &m = noc_results[i++];
                    os << "{\"figure\": \"F9b\""
                       << ", \"workload\": \"local-lock-stream\""
                       << ", \"topology\": \""
                       << mem::topologyName(topo)
                       << "\", \"cores\": " << cores
                       << ", \"dir_banks\": 8"
                       << ", \"base_cycles\": " << m.base_cycles
                       << ", \"spec_cycles\": " << m.spec_cycles
                       << ", \"speedup\": " << jsonNum(m.speedup)
                       << ", \"rollbacks\": " << m.rollbacks
                       << ", \"msgs\": " << m.msgs
                       << ", \"hops\": " << m.hops
                       << ", \"hops_per_msg\": "
                       << jsonNum(m.hops_per_msg)
                       << ", \"links_used\": " << m.links_used
                       << ", \"hot_link_msgs\": " << m.hot_link_msgs
                       << ", \"hot_link_busy\": " << m.hot_link_busy
                       << "}\n";
                }
            }
        };
        if (!harness::Options::writeFile("sweep-json", path, write, ""))
            return 1;
    }
    return 0;
}
