/**
 * @file
 * Shared helpers for system-level tests.
 */

#pragma once

#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "harness/run.hh"
#include "workload/workload.hh"

namespace fenceless::test
{

/** A small, fast system configuration for tests. */
inline harness::SystemConfig
testConfig(std::uint32_t cores = 4,
           cpu::ConsistencyModel model = cpu::ConsistencyModel::TSO)
{
    harness::SystemConfig cfg;
    cfg.num_cores = cores;
    cfg.model = model;
    cfg.l1.size = 4 * 1024;
    cfg.l1.assoc = 4;
    cfg.l2.size = 256 * 1024;
    cfg.l2.assoc = 8;
    cfg.net.latency = 4;
    cfg.l2.dram_latency = 30;
    cfg.max_cycles = 50'000'000;
    return cfg;
}

/**
 * Sixteen cores on 2-way, 8-set L2 slices in two banks: small enough
 * that a burst of misses to one set fills it, recalls and parks.
 */
inline harness::SystemConfig
fullL2SetMachine()
{
    harness::SystemConfig cfg;
    cfg.num_cores = 16;
    cfg.dir_banks = 2;
    cfg.l1.size = 4 * 1024;
    cfg.l1.assoc = 4;
    cfg.l2.size = 2 * 1024; // per bank: 8 sets of 2 ways
    cfg.l2.assoc = 2;
    cfg.l2.dram_latency = 30;
    cfg.max_cycles = 5'000'000;
    return cfg;
}

/**
 * Run @p wl under @p cfg; assert termination and postconditions
 * (harness::runWorkload also audits coherence).
 */
inline void
runAndAudit(workload::Workload &wl, const harness::SystemConfig &cfg)
{
    harness::Run run = harness::runWorkload(wl, cfg);
    ASSERT_FALSE(run.hung) << run.error;
    EXPECT_TRUE(run.ok()) << run.error;
}

/**
 * The counts that pin a run's cache replacement order: which block a
 * set gives up decides when later accesses hit, recall or refill, so a
 * change to victim choice moves the runtime and the bank and L1
 * counts.
 */
struct ReplacementCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    /** Per directory bank: recalls, DRAM reads, DRAM writes. */
    std::vector<std::array<std::uint64_t, 3>> banks;
    /** Summed over the L1s. */
    std::uint64_t evictions = 0;
    std::uint64_t overflow_waits = 0;
    std::uint64_t fill_retries = 0;

    bool operator==(const ReplacementCounts &) const = default;
};

inline ReplacementCounts
replacementCounts(const harness::System &sys)
{
    ReplacementCounts c;
    c.cycles = sys.runtimeCycles();
    c.insts = sys.totalInstructions();
    for (std::uint32_t b = 0; b < sys.dirBanks(); ++b) {
        const auto &bank = sys.directoryBank(b).statGroup();
        c.banks.push_back({bank.scalarCount("recalls"),
                           bank.scalarCount("dram_reads"),
                           bank.scalarCount("dram_writes")});
    }
    for (std::uint32_t i = 0; i < sys.config().num_cores; ++i) {
        const auto *l1 = sys.stats().findGroup("l1_" + std::to_string(i));
        c.evictions += l1->scalarCount("evictions");
        c.overflow_waits += l1->scalarCount("spec_overflow_waits");
        c.fill_retries += l1->scalarCount("fill_retries");
    }
    return c;
}

inline std::ostream &
operator<<(std::ostream &os, const ReplacementCounts &c)
{
    os << "{cycles " << c.cycles << ", insts " << c.insts << ", banks";
    for (const auto &b : c.banks)
        os << " {" << b[0] << ", " << b[1] << ", " << b[2] << "}";
    return os << ", evictions " << c.evictions << ", overflow_waits "
              << c.overflow_waits << ", fill_retries " << c.fill_retries
              << "}";
}

} // namespace fenceless::test
