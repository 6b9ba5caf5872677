/**
 * @file
 * Shared helpers for system-level tests.
 */

#pragma once

#include <gtest/gtest.h>

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

/** Run @p wl under @p cfg; assert termination, postconditions, audit. */
inline void
runAndAudit(workload::Workload &wl, const harness::SystemConfig &cfg)
{
    harness::Run run = harness::runWorkload(wl, cfg);
    ASSERT_FALSE(run.hung) << run.error;
    EXPECT_TRUE(run.ok()) << run.error;
    run.sys->auditCoherence();
}

} // namespace fenceless::test
