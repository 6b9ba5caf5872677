/**
 * @file
 * Fence-speculation tests: epochs open at ordering points, commits are
 * local, conflicts roll back to a consistent state, overflow policies
 * behave, per-store granularity hits its storage limit, and speculative
 * runs always produce the same final memory as baseline runs.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "tests/sim_test_util.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::isa;
using namespace fenceless::test;

namespace
{

harness::SystemConfig
specConfig(std::uint32_t cores, cpu::ConsistencyModel model,
           spec::SpecMode mode = spec::SpecMode::OnDemand)
{
    harness::SystemConfig cfg = testConfig(cores, model);
    cfg.spec.mode = mode;
    return cfg;
}

std::uint64_t
specStat(harness::System &sys, std::uint32_t i, const std::string &name)
{
    auto *ctrl = sys.specController(i);
    return ctrl ? ctrl->statGroup().scalarCount(name) : 0;
}

/** Store (miss) -> fence -> load other: the classic fence stall. */
isa::Program
fenceStallProgram(Addr *res_out)
{
    Assembler as;
    const Addr var = as.paddedWord("var", 0);
    const Addr other = as.paddedWord("other", 55);
    const Addr res = as.paddedWord("res", 0);
    as.li(a0, var);
    as.li(a1, other);
    as.li(t0, 1);
    as.st(t0, a0);
    as.fence();
    as.ld(t1, a1);
    as.li(a2, res);
    as.st(t1, a2);
    as.halt();
    *res_out = res;
    return as.finish();
}

} // namespace

TEST(Spec, FenceOpensEpochAndCommits)
{
    Addr res = 0;
    isa::Program prog = fenceStallProgram(&res);
    harness::System sys(
        specConfig(1, cpu::ConsistencyModel::TSO), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(res, 8), 55u);
    EXPECT_GE(specStat(sys, 0, "epochs_fence"), 1u);
    EXPECT_EQ(sys.specController(0)->commits(),
              sys.specController(0)->epochsStarted());
    EXPECT_EQ(sys.specController(0)->rollbacks(), 0u);
    // The fence did not stall the core.
    EXPECT_EQ(sys.core(0).statGroup().scalarCount("stall_fence_drain"),
              0u);
    sys.auditCoherence();
}

TEST(Spec, ScLoadOpensEpoch)
{
    Addr res = 0;
    isa::Program prog = fenceStallProgram(&res);
    harness::System sys(specConfig(1, cpu::ConsistencyModel::SC), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(res, 8), 55u);
    EXPECT_GE(specStat(sys, 0, "epochs_sc_load"), 1u);
    EXPECT_EQ(sys.core(0).statGroup().scalarCount(
                  "stall_sc_load_order"), 0u);
    sys.auditCoherence();
}

TEST(Spec, SpeculativeFasterThanBaseline)
{
    Addr res = 0;
    isa::Program prog = fenceStallProgram(&res);

    harness::System base(testConfig(1, cpu::ConsistencyModel::TSO),
                         prog);
    ASSERT_TRUE(base.run());
    harness::System specd(specConfig(1, cpu::ConsistencyModel::TSO),
                          prog);
    ASSERT_TRUE(specd.run());
    EXPECT_LT(specd.runtimeCycles(), base.runtimeCycles());
}

TEST(Spec, RemoteWriteConflictRollsBack)
{
    // Core 0 speculates past a fence and speculatively reads `shared`;
    // core 1 writes `shared` in a loop, inducing conflicts.
    Assembler as;
    const Addr sink = as.paddedWord("sink", 0);
    const Addr shared = as.paddedWord("shared", 0);
    const Addr res = as.paddedWord("res", 0);
    as.bne(tp, x0, "writer");
    as.li(a0, sink);
    as.li(a1, shared);
    as.li(a2, res);
    as.li(s0, 200);
    as.li(s2, 0);
    as.label("rloop");
    as.st(s0, a0); // miss keeps the SB busy
    as.fence();    // speculate past
    as.ld(t1, a1); // speculative read of the contended block
    as.add(s2, s2, t1);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "rloop");
    as.st(s2, a2);
    as.halt();
    as.label("writer");
    as.li(a0, sink);
    as.li(a1, shared);
    as.li(s0, 200);
    as.label("wloop");
    // Contend on the sink block too, so the reader's pre-fence store
    // keeps missing (otherwise its store buffer would drain instantly
    // and no epoch would ever open).
    as.st(s0, a0, 8);
    as.st(s0, a1);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "wloop");
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(specConfig(2, cpu::ConsistencyModel::TSO),
                        prog);
    ASSERT_TRUE(sys.run());
    EXPECT_GT(sys.specController(0)->rollbacks(), 0u);
    EXPECT_GT(specStat(sys, 0, "rollback_remote_write"), 0u);
    sys.auditCoherence();
}

TEST(Spec, RollbackRestoresArchState)
{
    // After any number of rollbacks the final counter values must be
    // exact: re-execution may not double-apply or lose work.
    workload::SpinlockCrit::Params p;
    p.iters = 150;
    workload::SpinlockCrit wl(p);
    runAndAudit(wl, specConfig(4, cpu::ConsistencyModel::TSO));
}

TEST(Spec, SpecMatchesBaselineFinalState)
{
    for (auto model : {cpu::ConsistencyModel::SC,
                       cpu::ConsistencyModel::TSO,
                       cpu::ConsistencyModel::RMO}) {
        workload::AtomicHistogram wl;
        runAndAudit(wl, testConfig(4, model));
        workload::AtomicHistogram wl2;
        runAndAudit(wl2, specConfig(4, model));
    }
}

TEST(Spec, ContinuousModeCommitsAndFinishes)
{
    workload::BarrierPhase wl;
    harness::SystemConfig cfg = specConfig(
        4, cpu::ConsistencyModel::SC, spec::SpecMode::Continuous);
    cfg.spec.min_epoch_insts = 64;
    runAndAudit(wl, cfg);
}

TEST(Spec, OverflowRollbackPolicy)
{
    // A tiny L1 and a long speculative epoch: tag pressure must trigger
    // overflow handling without corrupting results.
    harness::SystemConfig cfg = specConfig(
        2, cpu::ConsistencyModel::SC, spec::SpecMode::Continuous);
    cfg.l1.size = 512; // 8 blocks
    cfg.l1.assoc = 2;
    cfg.spec.min_epoch_insts = 100'000; // epochs only close on pressure
    cfg.spec.overflow = spec::OverflowPolicy::Rollback;

    workload::Stencil2D::Params p;
    p.n = 8;
    p.iters = 2;
    workload::Stencil2D wl(p);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;
    EXPECT_GT(specStat(sys, 0, "rollback_overflow") +
              specStat(sys, 0, "overflow_commits") +
              specStat(sys, 1, "rollback_overflow") +
              specStat(sys, 1, "overflow_commits"), 0u);
    sys.auditCoherence();
}

TEST(Spec, OverflowStallPolicy)
{
    harness::SystemConfig cfg = specConfig(
        2, cpu::ConsistencyModel::SC, spec::SpecMode::Continuous);
    cfg.l1.size = 512;
    cfg.l1.assoc = 2;
    cfg.spec.min_epoch_insts = 100'000;
    cfg.spec.overflow = spec::OverflowPolicy::Stall;

    workload::Stencil2D::Params p;
    p.n = 8;
    p.iters = 2;
    workload::Stencil2D wl(p);
    runAndAudit(wl, cfg);
}

TEST(Spec, PerStoreGranularityHitsLimit)
{
    // Many speculative stores inside one epoch: the bounded per-store
    // queue must stall while block granularity does not.
    Assembler as;
    const Addr sink = as.paddedWord("sink", 0);
    const Addr arr = as.alloc("arr", 64 * 64, 64);
    as.li(a0, sink);
    as.li(a1, arr);
    as.li(t0, 1);
    as.st(t0, a0);
    as.fence(); // open the epoch
    as.li(s0, 48);
    as.label("loop");
    as.st(s0, a1);
    as.addi(a1, a1, 64);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.halt();
    isa::Program prog = as.finish();

    harness::SystemConfig block_cfg =
        specConfig(1, cpu::ConsistencyModel::TSO);
    harness::SystemConfig ps_cfg = block_cfg;
    ps_cfg.spec.granularity = spec::Granularity::PerStore;
    ps_cfg.spec.ps_store_queue = 4;

    harness::System block_sys(block_cfg, prog);
    ASSERT_TRUE(block_sys.run());
    harness::System ps_sys(ps_cfg, prog);
    ASSERT_TRUE(ps_sys.run());

    EXPECT_EQ(specStat(block_sys, 0, "spec_limit_stalls"), 0u);
    EXPECT_GT(specStat(ps_sys, 0, "spec_limit_stalls"), 0u);
    // Both end with the same memory.
    for (std::uint64_t i = 0; i < 48; ++i) {
        EXPECT_EQ(block_sys.debugRead(arr + i * 64, 8),
                  ps_sys.debugRead(arr + i * 64, 8));
    }
}

TEST(Spec, CommitArbitrationLatencySlowsCommit)
{
    workload::BarrierPhase wl;
    harness::SystemConfig fast =
        specConfig(4, cpu::ConsistencyModel::TSO);
    harness::SystemConfig slow = fast;
    slow.spec.commit_arb_latency = 100;

    isa::Program prog = wl.build(4);
    harness::System fast_sys(fast, prog);
    ASSERT_TRUE(fast_sys.run());
    isa::Program prog2 = wl.build(4);
    harness::System slow_sys(slow, prog2);
    ASSERT_TRUE(slow_sys.run());
    EXPECT_LT(fast_sys.runtimeCycles(), slow_sys.runtimeCycles());
}

TEST(Spec, StorageModelScaling)
{
    // Block granularity is constant in depth; per-store grows linearly.
    const auto block_512 = spec::StorageModel::blockGranularityBytes(512);
    EXPECT_LT(block_512, 1024u); // "approximately one kilobyte"
    EXPECT_EQ(spec::StorageModel::blockGranularityBytes(512),
              spec::StorageModel::blockGranularityBytes(512));
    const auto ps16 = spec::StorageModel::perStoreBytes(16, 32);
    const auto ps64 = spec::StorageModel::perStoreBytes(64, 128);
    EXPECT_GT(ps64, ps16);
    EXPECT_GT(ps64 - ps16, 3 * (ps64 / 8)); // clearly linear growth
}

TEST(Spec, WbCleanPreservesCommittedDataAcrossRollback)
{
    // Core 0: commit value A to a block (dirty M), then speculatively
    // write B to the same block inside an epoch that a remote write is
    // guaranteed to roll back.  The final value must never lose A.
    Assembler as;
    const Addr sink = as.paddedWord("sink", 0);
    const Addr victim = as.paddedWord("victim", 0);
    const Addr poke = as.paddedWord("poke", 0);
    as.bne(tp, x0, "poker");
    as.li(a0, sink);
    as.li(a1, victim);
    as.li(a2, poke);
    // Commit A = 1111 (ordinary dirty data).
    as.li(t0, 1111);
    as.st(t0, a1);
    as.fence(); // drain: the block is now M+dirty with A
    // Open an epoch: store to sink (miss) then fence.
    as.li(t0, 1);
    as.st(t0, a0);
    as.fence();
    // Speculative write B and a speculative read of the contended word.
    as.li(t0, 2222);
    as.st(t0, a1); // drains speculatively: WbClean(A) then B + SW
    as.ld(t1, a2); // SR on the block core 1 is hammering
    as.ld(t2, a1);
    as.halt();
    as.label("poker");
    as.li(a2, poke);
    as.li(s0, 400);
    as.label("pl");
    as.st(s0, a2);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "pl");
    as.halt();
    isa::Program prog = as.finish();

    harness::SystemConfig cfg = specConfig(2,
                                           cpu::ConsistencyModel::TSO);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    // Whatever happened (commit or rollback+replay), the block holds
    // either the committed A (if the spec store was discarded and the
    // core had not re-executed it yet... impossible: re-execution
    // always reapplies) -- so exactly B after the program ends.
    EXPECT_EQ(sys.debugRead(0x1000 + 64, 8), 2222u);
    sys.auditCoherence();
}

TEST(Spec, MStaleRefetchReturnsPreSpecValue)
{
    // Force a rollback with a speculatively-written block; the very
    // next access must observe the pre-speculation value (from the L2),
    // then re-execute and produce the final value exactly once.
    workload::IrregularUpdate::Params p;
    p.updates = 300;
    p.bins = 4; // heavy conflicts: many SW rollbacks with MStale
    workload::IrregularUpdate wl(p);
    harness::SystemConfig cfg = specConfig(4,
                                           cpu::ConsistencyModel::SC);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;
    sys.auditCoherence();
}

TEST(Spec, RollbackDuringCommitArbitrationIsSafe)
{
    // With a large arbitration window, conflicts land while commits are
    // "arbitrating"; the scheduled commit must notice the rollback and
    // do nothing.
    workload::IrregularUpdate::Params p;
    p.updates = 200;
    p.bins = 8;
    workload::IrregularUpdate wl(p);
    harness::SystemConfig cfg = specConfig(4,
                                           cpu::ConsistencyModel::SC);
    cfg.spec.commit_arb_latency = 60;
    runAndAudit(wl, cfg);
}

TEST(Spec, CooldownForcesNonSpeculativeRetry)
{
    // After the rollback storm in dekker, cooldown windows must produce
    // correct results and strictly fewer epochs than ordering points.
    workload::Dekker::Params p;
    p.iters = 150;
    workload::Dekker wl(p);
    harness::SystemConfig cfg = specConfig(2,
                                           cpu::ConsistencyModel::SC);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;
    // Rollbacks occurred and backoff kicked in (fewer epochs than the
    // ~150 fences each side executes).
    const auto rollbacks = sys.totalRollbacks();
    EXPECT_GT(rollbacks, 0u);
    const auto epochs = sys.specController(0)->epochsStarted() +
                        sys.specController(1)->epochsStarted();
    EXPECT_LT(epochs, 300u);
}

TEST(Spec, RollbackOrphansThePendingTick)
{
    // A rollback that lands while the core's next tick is queued
    // orphans that tick: it fires and returns, and only the tick the
    // restore schedules runs the core.  Were the orphan to run too, the
    // core would retire twice in one cycle.
    workload::Dekker wl;
    harness::SystemConfig cfg = specConfig(2, cpu::ConsistencyModel::SC);
    cfg.withTracing();
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_GT(sys.totalRollbacks(), 0u);
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;

    const auto &tracks = sys.tracer().components();
    std::vector<Tick> last_commit(tracks.size(), max_tick);
    std::size_t commits = 0;
    sys.tracer().forEach([&](const trace::TraceRecord &r) {
        if (r.kind != static_cast<std::uint16_t>(
                          trace::EventKind::CoreCommit))
            return;
        ++commits;
        EXPECT_NE(last_commit[r.comp], r.tick)
            << tracks[r.comp] << " retired twice at tick " << r.tick;
        last_commit[r.comp] = r.tick;
    });
    EXPECT_GT(commits, 0u);
}

TEST(Spec, HaltCommitsOutstandingEpoch)
{
    // A program that halts while inside an epoch: requestStop must
    // commit (not discard) the speculative work.
    Assembler as;
    const Addr sink = as.paddedWord("sink", 0);
    const Addr out = as.paddedWord("out", 0);
    as.li(a0, sink);
    as.li(a1, out);
    as.li(t0, 1);
    as.st(t0, a0); // slow store keeps the SB busy
    as.fence();    // open the epoch
    as.li(t0, 777);
    as.st(t0, a1); // speculative store
    as.halt();     // halt with the epoch still open
    isa::Program prog = as.finish();

    harness::SystemConfig cfg = specConfig(1,
                                           cpu::ConsistencyModel::TSO);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(0x1000 + 64, 8), 777u);
    EXPECT_GE(sys.specController(0)->commits(), 1u);
    sys.auditCoherence();
}

TEST(Spec, ContinuousChainsEpochs)
{
    // In continuous mode epochs follow each other back to back: with a
    // store-heavy single-core program (no conflicts possible) every
    // epoch commits and their count far exceeds the fence count.
    workload::LocalLockStream::Params p;
    p.iters = 64;
    workload::LocalLockStream wl(p);
    harness::SystemConfig cfg = specConfig(
        1, cpu::ConsistencyModel::SC, spec::SpecMode::Continuous);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;
    auto *ctrl = sys.specController(0);
    EXPECT_EQ(ctrl->rollbacks(), 0u);
    EXPECT_EQ(ctrl->commits(), ctrl->epochsStarted());
    EXPECT_GT(ctrl->commits(),
              sys.core(0).statGroup().scalarCount("fences_full"));
}
