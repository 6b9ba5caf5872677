/**
 * @file
 * Core and store-buffer tests: forwarding, drain ordering, consistency-
 * model baseline behaviour (which stalls occur under SC/TSO/RMO).
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "tests/sim_test_util.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::isa;
using namespace fenceless::test;

namespace
{

/** Store then immediately load the same address: must forward. */
isa::Program
forwardingProgram(Addr *out)
{
    Assembler as;
    const Addr var = as.word("var", 0);
    const Addr res = as.word("res", 0);
    as.li(a0, var);
    as.li(t0, 77);
    as.st(t0, a0);
    as.ld(t1, a0); // should forward from the SB
    as.li(a1, res);
    as.st(t1, a1);
    as.halt();
    *out = res;
    return as.finish();
}

std::uint64_t
coreStat(harness::System &sys, std::uint32_t i, const std::string &name)
{
    return sys.core(i).statGroup().scalarCount(name);
}

} // namespace

TEST(StoreBuffer, ForwardsFullContainment)
{
    Addr res = 0;
    isa::Program prog = forwardingProgram(&res);
    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(res, 8), 77u);
    EXPECT_GE(coreStat(sys, 0, "sb_fwd_hits"), 1u);
}

TEST(StoreBuffer, SubwordForwarding)
{
    Assembler as;
    const Addr var = as.word("var", 0);
    const Addr res = as.word("res", 0);
    as.li(a0, var);
    as.li(t0, 0x1122334455667788ULL);
    as.st(t0, a0);
    as.ld(t1, a0, 4, 4); // upper 4 bytes, contained in the 8B store
    as.li(a1, res);
    as.st(t1, a1);
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(res, 8), 0x11223344u);
}

TEST(StoreBuffer, PartialOverlapStalls)
{
    Assembler as;
    const Addr var = as.word("var", 0);
    const Addr res = as.word("res", 0);
    as.li(a0, var);
    as.li(t0, 0xAB);
    as.st(t0, a0, 0, 1); // 1-byte store
    as.ld(t1, a0);       // 8-byte load overlapping it: conflict
    as.li(a1, res);
    as.st(t1, a1);
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(res, 8), 0xABu);
    EXPECT_GE(coreStat(sys, 0, "sb_fwd_conflicts"), 1u);
    EXPECT_GT(coreStat(sys, 0, "stall_fwd_conflict"), 0u);
}

TEST(Consistency, ScLoadsStallOnBufferedStores)
{
    Addr res = 0;
    isa::Program prog = forwardingProgram(&res);
    harness::System sys(testConfig(1, cpu::ConsistencyModel::SC), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(res, 8), 77u);
    // Under SC the load waited for the buffered store to drain.
    EXPECT_GT(coreStat(sys, 0, "stall_sc_load_order"), 0u);
    EXPECT_EQ(coreStat(sys, 0, "sb_fwd_hits"), 0u);
}

TEST(Consistency, TsoLoadsBypassBufferedStores)
{
    Addr res = 0;
    isa::Program prog = forwardingProgram(&res);
    harness::System sys(testConfig(1, cpu::ConsistencyModel::TSO),
                        prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(res, 8), 77u);
    EXPECT_EQ(coreStat(sys, 0, "stall_sc_load_order"), 0u);
}

namespace
{

/** Store to a (miss) address, then a full fence, then an ALU op. */
isa::Program
fenceProgram()
{
    Assembler as;
    const Addr var = as.word("var", 0);
    as.li(a0, var);
    as.li(t0, 1);
    as.st(t0, a0);
    as.fence();
    as.li(t1, 2);
    as.halt();
    return as.finish();
}

} // namespace

TEST(Consistency, FullFenceDrainsUnderTso)
{
    isa::Program prog = fenceProgram();
    harness::System sys(testConfig(1, cpu::ConsistencyModel::TSO),
                        prog);
    ASSERT_TRUE(sys.run());
    EXPECT_GT(coreStat(sys, 0, "stall_fence_drain"), 0u);
}

TEST(Consistency, FullFenceFreeUnderSc)
{
    // Under SC the ordering already holds; the fence must not stall.
    isa::Program prog = fenceProgram();
    harness::System sys(testConfig(1, cpu::ConsistencyModel::SC), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(coreStat(sys, 0, "stall_fence_drain"), 0u);
}

TEST(Consistency, AmoDrainsUnderTsoNotRmo)
{
    Assembler as;
    const Addr var = as.word("var", 0);
    const Addr other = as.word("other", 0);
    as.li(a0, var);
    as.li(a1, other);
    as.li(t0, 1);
    as.st(t0, a1); // buffered store to a different address
    as.li(t1, 5);
    as.amoadd(t2, t1, a0);
    as.halt();
    isa::Program prog = as.finish();

    {
        harness::System sys(testConfig(1, cpu::ConsistencyModel::TSO),
                            prog);
        ASSERT_TRUE(sys.run());
        EXPECT_GT(coreStat(sys, 0, "stall_amo_order"), 0u);
    }
    {
        harness::System sys(testConfig(1, cpu::ConsistencyModel::RMO),
                            prog);
        ASSERT_TRUE(sys.run());
        EXPECT_EQ(coreStat(sys, 0, "stall_amo_order"), 0u);
    }
}

TEST(Consistency, AmoWaitsForOverlappingStoreEverywhere)
{
    // Value dependency: the AMO must see the buffered store's value.
    Assembler as;
    const Addr var = as.word("var", 0);
    const Addr res = as.word("res", 0);
    as.li(a0, var);
    as.li(t0, 100);
    as.st(t0, a0);
    as.li(t1, 5);
    as.amoadd(t2, t1, a0); // must observe 100
    as.li(a1, res);
    as.st(t2, a1);
    as.halt();
    isa::Program prog = as.finish();

    for (auto model : {cpu::ConsistencyModel::SC,
                       cpu::ConsistencyModel::TSO,
                       cpu::ConsistencyModel::RMO}) {
        harness::System sys(testConfig(1, model), prog);
        ASSERT_TRUE(sys.run());
        EXPECT_EQ(sys.debugRead(res, 8), 100u)
            << consistencyModelName(model);
        EXPECT_EQ(sys.debugRead(var, 8), 105u)
            << consistencyModelName(model);
    }
}

TEST(Consistency, SbFullStalls)
{
    harness::SystemConfig cfg = testConfig(1);
    cfg.sb_size = 2;

    Assembler as;
    const Addr arr = as.alloc("arr", 64 * 64, 64);
    as.li(a0, arr);
    as.li(s0, 32);
    as.label("loop");
    as.st(s0, a0); // each store misses: the SB backs up
    as.addi(a0, a0, 64);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_GT(coreStat(sys, 0, "stall_sb_full"), 0u);
}

TEST(Consistency, SbDrainRetriesUnderMshrBackPressure)
{
    // Three MSHRs: the L1 accepts a store-buffer miss only when no
    // other miss is in flight, so drains and ownership prefetches that
    // would miss meanwhile are refused and the buffer retries later.
    // Streaming stores and lock AMOs must still complete correctly.
    for (auto model : {cpu::ConsistencyModel::TSO,
                       cpu::ConsistencyModel::RMO}) {
        harness::SystemConfig cfg = testConfig(4, model);
        cfg.l1.num_mshrs = 3;
        workload::LocalLockStream::Params p;
        p.iters = 16;
        workload::LocalLockStream wl(p);
        runAndAudit(wl, cfg);
    }
}

TEST(Consistency, RmoDrainsOutOfOrder)
{
    // A store that misses followed by stores that hit: under RMO the
    // hits may drain first, under TSO they wait behind the miss.
    Assembler as;
    const Addr hot = as.word("hot", 0);
    const Addr cold = as.alloc("cold", 64, 4096); // far away: miss
    as.li(a0, hot);
    as.ld(t0, a0); // warm the hot block (exclusive)
    as.li(a1, cold);
    as.li(t1, 1);
    as.st(t1, a1); // miss
    as.st(t1, a0); // hit
    as.st(t1, a0, 0, 4);
    as.halt();
    isa::Program prog = as.finish();

    auto run_runtime = [&](cpu::ConsistencyModel m) {
        harness::System sys(testConfig(1, m), prog);
        EXPECT_TRUE(sys.run());
        return sys.runtimeCycles();
    };
    // Out-of-order drain cannot be slower.
    EXPECT_LE(run_runtime(cpu::ConsistencyModel::RMO),
              run_runtime(cpu::ConsistencyModel::TSO));
}

TEST(Core, InstructionCountsExact)
{
    Assembler as;
    as.li(t0, 3);     // 1
    as.addi(t0, t0, 1); // 2
    as.nop();         // 3
    as.halt();        // 4
    isa::Program prog = as.finish();

    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.core(0).instret(), 4u);
}

TEST(Core, BranchAndJumpFlow)
{
    Assembler as;
    const Addr res = as.word("res", 0);
    as.li(t0, 0);
    as.li(s0, 10);
    as.label("loop");
    as.addi(t0, t0, 2);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.call("store_it");
    as.halt();
    as.label("store_it");
    as.li(a1, res);
    as.st(t0, a1);
    as.ret();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(res, 8), 20u);
}

TEST(Core, CsrCycleMonotonic)
{
    Assembler as;
    const Addr res = as.alloc("res", 16, 8);
    as.csrr(t0, Csr::Cycle);
    as.li(a0, res);
    as.st(t0, a0);
    as.csrr(t1, Csr::Cycle);
    as.st(t1, a0, 8);
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_LT(sys.debugRead(res, 8), sys.debugRead(res + 8, 8));
}
