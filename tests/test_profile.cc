/**
 * @file
 * Waste-attribution profiler tests: disabled-by-default semantics,
 * bucket staging across speculative epochs, false-sharing detection,
 * rollback attribution, deterministic (byte-identical) rendering
 * across repeated runs and sweep job counts, and the folded-stack
 * golden output on a litmus workload.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "isa/assembler.hh"
#include "sim/profiler.hh"
#include "tests/sim_test_util.hh"
#include "workload/litmus.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::isa;
using namespace fenceless::test;

namespace
{

/** Every rendering of a profile concatenated, for byte comparisons. */
std::string
renderAll(const prof::Profile &p)
{
    std::ostringstream os;
    p.writeJson(os);
    os << "\n---\n";
    p.writeFolded(os);
    os << "\n---\n";
    p.writeReport(os);
    return os.str();
}

/**
 * Four cores increment private counters that share one cache line:
 * textbook false sharing.  Core 0 additionally owns a padded control
 * word that must *not* be flagged.
 */
isa::Program
falseSharingProgram(std::uint64_t iters)
{
    Assembler as;
    const Addr hot = as.alloc("hot", 4 * 8, 64);
    const Addr ctrl = as.paddedWord("ctrl", 0);

    as.li(a0, hot);
    as.slli(t0, tp, 3); // tid * 8: each core its own 8-byte slot
    as.add(a0, a0, t0);
    as.li(s0, iters);
    as.label("loop");
    as.ld(t1, a0);
    as.addi(t1, t1, 1);
    as.st(t1, a0);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.bne(tp, x0, "done");
    as.li(a1, ctrl);
    as.li(t1, 1);
    as.st(t1, a1);
    as.label("done");
    as.halt();
    return as.finish();
}

/**
 * Core 0 speculates past a fence and reads a block core 1 keeps
 * writing: every epoch is at risk of a remote-write rollback (same
 * shape as Spec.RemoteWriteConflictRollsBack).
 */
isa::Program
conflictProgram()
{
    Assembler as;
    const Addr sink = as.paddedWord("sink", 0);
    const Addr contended = as.paddedWord("contended", 0);
    const Addr res = as.paddedWord("res", 0);
    as.bne(tp, x0, "writer");
    as.li(a0, sink);
    as.li(a1, contended);
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
    as.li(a1, contended);
    as.li(s0, 200);
    as.label("wloop");
    as.st(s0, a0, 8);
    as.st(s0, a1);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "wloop");
    as.halt();
    return as.finish();
}

/** Run SpinlockCrit on a profiling test system and snapshot it. */
prof::Profile
runProfiledSpinlock(const std::string &scope, unsigned iters = 64)
{
    harness::SystemConfig cfg = testConfig(4);
    cfg.withSpeculation();
    cfg.profile = true;
    workload::SpinlockCrit::Params p;
    p.iters = iters;
    workload::SpinlockCrit wl(p);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    EXPECT_TRUE(sys.run());
    return sys.profile(scope);
}

} // namespace

// --- unit-level profiler behaviour -----------------------------------------

TEST(WasteProfiler, DisabledByDefaultAndCostsNothing)
{
    prof::WasteProfiler p;
    EXPECT_FALSE(p.enabled());
    EXPECT_EQ(p.ifEnabled(), nullptr);
    EXPECT_TRUE(p.snapshot().empty());
}

TEST(WasteProfiler, SystemWithoutProfileFlagStaysEmpty)
{
    workload::SpinlockCrit::Params p;
    p.iters = 8;
    workload::SpinlockCrit wl(p);
    harness::SystemConfig cfg = testConfig(2);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_FALSE(sys.context().profiler.enabled());
    EXPECT_TRUE(sys.profile().empty());
}

TEST(WasteProfiler, StagingCommitAndRollback)
{
    prof::WasteProfiler p;
    p.configure(8, 2, 64, {{0, "start"}, {4, "tail"}},
                {{0x1000, 8, "var"}});
    ASSERT_EQ(p.ifEnabled(), &p);

    // Non-speculative charges land immediately.
    p.addCycles(0, 1, prof::CycleBucket::Execute, 3, false);
    p.addCycles(0, 1, prof::CycleBucket::FenceStall, 10, false);
    // Core 1 stages inside an epoch, then commits.
    p.addCycles(1, 2, prof::CycleBucket::Execute, 2, true);
    p.commitEpoch(1);
    // Core 0 stages inside an epoch, then rolls back: the staged
    // execute cycles become RollbackDiscarded at the PC that ran them.
    p.addCycles(0, 4, prof::CycleBucket::Execute, 7, true);
    p.rollbackEpoch(0, "remote_write", 0x1000, 4, 5);

    prof::Profile snap = p.snapshot();
    ASSERT_EQ(snap.pcs.count("start+1"), 1u);
    const auto &s1 = snap.pcs.at("start+1");
    EXPECT_EQ(s1.cycles[0], 3u);  // Execute
    EXPECT_EQ(s1.cycles[1], 10u); // FenceStall
    EXPECT_EQ(s1.execs, 1u);
    EXPECT_EQ(s1.wasted(), 10u);

    ASSERT_EQ(snap.pcs.count("start+2"), 1u);
    EXPECT_EQ(snap.pcs.at("start+2").cycles[0], 2u);
    EXPECT_EQ(snap.pcs.at("start+2").execs, 1u);

    ASSERT_EQ(snap.pcs.count("tail"), 1u);
    const auto &t = snap.pcs.at("tail");
    EXPECT_EQ(t.cycles[0], 0u); // discarded, not executed
    EXPECT_EQ(t.execs, 0u);
    EXPECT_EQ(t.cycles[4], 7u); // RollbackDiscarded
    EXPECT_EQ(t.wasted(), 7u);

    ASSERT_EQ(snap.rollbacks.size(), 1u);
    const auto &rb = snap.rollbacks.begin()->second;
    EXPECT_EQ(rb.cause, "remote_write");
    EXPECT_EQ(rb.victim, "tail");
    EXPECT_EQ(rb.line, "var");
    EXPECT_EQ(rb.count, 1u);
    EXPECT_EQ(rb.discarded_insts, 5u);
}

TEST(WasteProfiler, FalseSharingNeedsDisjointSlots)
{
    prof::WasteProfiler p;
    p.configure(1, 2, 64, {}, {});
    // Line A: two cores, disjoint 8-byte slots -> false sharing.
    p.touchLine(0, 0x40, 0, 8);
    p.touchLine(1, 0x40, 8, 8);
    p.lineInvalidated(0x40);
    // Line B: two cores, same slot -> true sharing.
    p.touchLine(0, 0x80, 0, 8);
    p.touchLine(1, 0x80, 0, 8);
    // Line C: one core only -> no sharing at all.
    p.touchLine(0, 0xc0, 16, 8);

    prof::Profile snap = p.snapshot();
    ASSERT_EQ(snap.lines.size(), 3u);
    EXPECT_TRUE(snap.lines.at("0x40").false_sharing);
    EXPECT_EQ(snap.lines.at("0x40").invalidations, 1u);
    EXPECT_EQ(snap.lines.at("0x40").cores_touched, 2u);
    EXPECT_FALSE(snap.lines.at("0x80").false_sharing);
    EXPECT_FALSE(snap.lines.at("0xc0").false_sharing);
    EXPECT_EQ(snap.lines.at("0xc0").cores_touched, 1u);
}

TEST(Profile, MergeSumsRowsAndScopesKeepThemApart)
{
    prof::WasteProfiler p;
    p.configure(4, 1, 64, {{0, "f"}}, {});
    p.addCycles(0, 0, prof::CycleBucket::Execute, 5, false);
    p.touchLine(0, 0x40, 0, 8);

    prof::Profile a = p.snapshot();
    prof::Profile b = p.snapshot();
    a.merge(b);
    EXPECT_EQ(a.pcs.at("f").cycles[0], 10u);
    EXPECT_EQ(a.pcs.at("f").execs, 2u);
    EXPECT_EQ(a.lines.at("0x40").touches, 2u);

    prof::Profile s1 = p.snapshot("cfgA");
    s1.merge(p.snapshot("cfgB"));
    EXPECT_EQ(s1.pcs.size(), 2u);
    EXPECT_EQ(s1.pcs.count("cfgA;f"), 1u);
    EXPECT_EQ(s1.pcs.count("cfgB;f"), 1u);
}

// --- whole-system attribution ----------------------------------------------

TEST(Profile, FalseSharingMicrobenchAttributesTheHotLine)
{
    harness::SystemConfig cfg = testConfig(4);
    cfg.profile = true;
    isa::Program prog = falseSharingProgram(64);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    sys.auditCoherence();

    prof::Profile snap = sys.profile();
    ASSERT_EQ(snap.lines.count("hot"), 1u);
    const auto &hot = snap.lines.at("hot");
    EXPECT_TRUE(hot.false_sharing);
    EXPECT_EQ(hot.cores_touched, 4u);
    EXPECT_GT(hot.invalidations, 0u);
    EXPECT_GT(hot.ping_pongs, 0u);

    // The known-hot line owns (almost) all invalidations in the run.
    std::uint64_t total_invs = 0;
    for (const auto &[key, row] : snap.lines)
        total_invs += row.invalidations;
    EXPECT_GE(hot.invalidations * 10, total_invs * 9)
        << "hot line owns " << hot.invalidations << " of "
        << total_invs << " invalidations";

    // The core-0-private control word is not false sharing.
    if (snap.lines.count("ctrl")) {
        const auto &ctrl = snap.lines.at("ctrl");
        EXPECT_FALSE(ctrl.false_sharing);
        EXPECT_EQ(ctrl.cores_touched, 1u);
    }
}

TEST(Profile, RollbacksAttributedByCauseVictimAndLine)
{
    harness::SystemConfig cfg = testConfig(2);
    cfg.withSpeculation();
    cfg.profile = true;
    isa::Program prog = conflictProgram();
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    ASSERT_GT(sys.totalRollbacks(), 0u);

    prof::Profile snap = sys.profile();
    ASSERT_FALSE(snap.rollbacks.empty());
    std::uint64_t counted = 0;
    bool remote_write_on_contended = false;
    for (const auto &[key, row] : snap.rollbacks) {
        counted += row.count;
        if (row.cause == "remote_write" &&
            row.line == "contended") {
            remote_write_on_contended = true;
            EXPECT_GT(row.discarded_insts, 0u);
        }
    }
    // Every rollback the controllers counted is attributed somewhere.
    EXPECT_EQ(counted, sys.totalRollbacks());
    EXPECT_TRUE(remote_write_on_contended);

    // The discarded wrong-path work shows up as RollbackDiscarded
    // cycles on the reader's speculative body.
    std::uint64_t discarded_cycles = 0;
    for (const auto &[key, row] : snap.pcs)
        discarded_cycles += row.cycles[4];
    EXPECT_GT(discarded_cycles, 0u);
}

// --- determinism -----------------------------------------------------------

TEST(Profile, ByteIdenticalAcrossRepeatedRuns)
{
    const std::string a = renderAll(runProfiledSpinlock("s"));
    const std::string b = renderAll(runProfiledSpinlock("s"));
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

TEST(Profile, ProfilingDoesNotPerturbTheSimulation)
{
    workload::SpinlockCrit::Params p;
    p.iters = 64;
    workload::SpinlockCrit wl(p);
    harness::SystemConfig cfg = testConfig(4);
    cfg.withSpeculation();
    isa::Program prog = wl.build(cfg.num_cores);

    harness::System plain(cfg, prog);
    ASSERT_TRUE(plain.run());
    cfg.profile = true;
    harness::System profiled(cfg, prog);
    ASSERT_TRUE(profiled.run());

    EXPECT_EQ(plain.runtimeCycles(), profiled.runtimeCycles());
    EXPECT_EQ(plain.totalInstructions(), profiled.totalInstructions());
    EXPECT_EQ(plain.totalRollbacks(), profiled.totalRollbacks());
}

TEST(Profile, SweepMergeIsJobCountInvariant)
{
    auto sweep = [](unsigned jobs) {
        std::vector<std::function<prof::Profile()>> tasks;
        for (int i = 0; i < 4; ++i) {
            const std::string scope = "cfg" + std::to_string(i);
            tasks.push_back([scope]() {
                return runProfiledSpinlock(scope);
            });
        }
        harness::SweepRunner runner(jobs);
        prof::Profile merged;
        for (const prof::Profile &p : runner.map(std::move(tasks)))
            merged.merge(p);
        return renderAll(merged);
    };
    const std::string sequential = sweep(1);
    const std::string parallel = sweep(4);
    EXPECT_EQ(sequential, parallel);
    EXPECT_FALSE(sequential.empty());
}

// --- folded output golden --------------------------------------------------

TEST(Profile, FoldedOutputIsWellFormedAndStable)
{
    workload::LitmusSB litmus(/*with_fences=*/true);
    harness::SystemConfig cfg = testConfig(2);
    cfg.profile = true;
    isa::Program prog = litmus.build({0, 0});
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    std::ostringstream os;
    sys.profile().writeFolded(os);
    const std::string folded = os.str();

    // Every line is "symbol;bucket cycles".
    std::istringstream is(folded);
    std::string line;
    std::size_t lines = 0;
    bool saw_fence_stall = false;
    while (std::getline(is, line)) {
        ++lines;
        const auto semi = line.rfind(';');
        const auto space = line.rfind(' ');
        ASSERT_NE(semi, std::string::npos) << line;
        ASSERT_NE(space, std::string::npos) << line;
        ASSERT_LT(semi, space) << line;
        const std::string bucket =
            line.substr(semi + 1, space - semi - 1);
        EXPECT_TRUE(bucket == "execute" || bucket == "fence_stall" ||
                    bucket == "sb_full" || bucket == "miss_wait" ||
                    bucket == "rollback_discarded")
            << line;
        EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
        saw_fence_stall |= bucket == "fence_stall";
    }
    EXPECT_GT(lines, 0u);
    // SB+fences stalls on its full fence: the folded stacks must
    // attribute fence-stall cycles to the litmus body, symbolized via
    // its thread labels.
    EXPECT_TRUE(saw_fence_stall);
    EXPECT_NE(folded.find("t0"), std::string::npos);
    EXPECT_NE(folded.find("t1"), std::string::npos);

    // Golden property: a second identical run folds byte-identically.
    harness::System again(cfg, litmus.build({0, 0}));
    ASSERT_TRUE(again.run());
    std::ostringstream os2;
    again.profile().writeFolded(os2);
    EXPECT_EQ(folded, os2.str());
}
