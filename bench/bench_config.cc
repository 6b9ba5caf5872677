/**
 * @file
 * T1: the evaluated system configuration (methodology table).
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "core/spec_controller.hh"

using namespace fenceless;
using namespace fenceless::bench;

int
main(int argc, char **argv)
{
    // No sweep here, but accept --jobs like every bench binary, so
    // scripts can pass it to each one (and --help works).
    harness::Options(argc, argv, harness::Options::Jobs);
    banner("T1", "simulated system configuration");

    const harness::SystemConfig cfg = defaultConfig();
    harness::Table table({"parameter", "value"});
    table.addRow({"cores", std::to_string(cfg.num_cores)
                  + " in-order, 1 IPC peak"});
    table.addRow({"store buffer", std::to_string(cfg.sb_size)
                  + " entries, forwarding"});
    table.addRow({"consistency models", "SC / TSO / RMO (pluggable)"});
    table.addRow({"L1D (private)",
                  std::to_string(cfg.l1.size / 1024) + " KiB, "
                  + std::to_string(cfg.l1.assoc) + "-way, "
                  + std::to_string(cfg.l1.block_size) + "B blocks, "
                  + std::to_string(cfg.l1.hit_latency)
                  + "-cycle hits"});
    table.addRow({"L2 (shared, inclusive)",
                  std::to_string(cfg.l2.size / (1024 * 1024))
                  + " MiB, " + std::to_string(cfg.l2.assoc)
                  + "-way, directory MESI, "
                  + std::to_string(cfg.l2.latency)
                  + "-cycle access"});
    table.addRow({"interconnect",
                  "star, " + std::to_string(cfg.net.latency)
                  + "-cycle hops, "
                  + std::to_string(cfg.net.link_bytes_per_cycle)
                  + " B/cycle links, per-channel FIFO"});
    table.addRow({"DRAM", std::to_string(cfg.l2.dram_latency)
                  + "-cycle latency"});

    const std::uint64_t l1_blocks = cfg.l1.size / cfg.l1.block_size;
    table.addRow({"speculation tags",
                  "2 bits/L1 block + 1 register checkpoint = "
                  + std::to_string(
                      spec::StorageModel::blockGranularityBytes(
                          l1_blocks)) + " B/core"});
    table.print(std::cout);

    std::cout << "\nworkloads:\n";
    for (auto &wl : workload::standardSuite(1))
        std::cout << "  - " << wl->name() << "\n";
    return 0;
}
