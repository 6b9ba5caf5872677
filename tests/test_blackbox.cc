/**
 * @file
 * Incident-observability tests: the flight recorder (ring capture and
 * dump), the hang watchdog (a seeded true deadlock fires it; slow and
 * rollback-heavy-but-live runs do not), the run loop's snapshot and
 * probe ticks, the wait-for graph (cycle detection and deterministic
 * printing), and the stall dossier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "isa/assembler.hh"
#include "sim/blackbox.hh"
#include "sim/waitgraph.hh"
#include "tests/sim_test_util.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::test;
using sim::WaitGraph;
using sim::WaitNode;

namespace
{

WaitNode
coreNode(std::uint32_t i)
{
    return {WaitNode::Kind::Core, i, 0};
}

WaitNode
mshrNode(std::uint32_t i, Addr a)
{
    return {WaitNode::Kind::Mshr, i, a};
}

WaitNode
txnNode(Addr a)
{
    return {WaitNode::Kind::DirTxn, 0, a};
}

std::string
printGraph(const WaitGraph &g)
{
    std::ostringstream os;
    g.print(os);
    return os.str();
}

/** Build the seeded-deadlock system with the Fwd*Ack fault injection. */
std::unique_ptr<harness::System>
buildDeadlockedSystem(workload::SeededDeadlock &wl,
                      harness::SystemConfig cfg)
{
    cfg.net.drop_fwd_acks_for = {wl.blockX(), wl.blockY()};
    return std::make_unique<harness::System>(cfg,
                                             wl.build(cfg.num_cores));
}

} // namespace

// ---------------------------------------------------------------------
// WaitGraph
// ---------------------------------------------------------------------

TEST(WaitGraph, AcyclicGraphHasNoCycles)
{
    WaitGraph g;
    g.addEdge(coreNode(0), mshrNode(0, 0x100), "load miss");
    g.addEdge(mshrNode(0, 0x100), txnNode(0x100), "GetS");
    EXPECT_TRUE(g.cycles().empty());
    const std::string out = printGraph(g);
    EXPECT_NE(out.find("no wait-for cycle"), std::string::npos);
    EXPECT_EQ(out.find("DEADLOCK CYCLE"), std::string::npos);
}

TEST(WaitGraph, SimpleCycleFound)
{
    WaitGraph g;
    g.addEdge(coreNode(0), coreNode(1), "waits");
    g.addEdge(coreNode(1), coreNode(0), "waits");
    const auto cycles = g.cycles();
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(cycles[0].size(), 2u);
    EXPECT_EQ(cycles[0][0], coreNode(0)); // rooted at smallest node
    EXPECT_NE(printGraph(g).find("DEADLOCK CYCLE: core_0 -> core_1 "
                                 "-> core_0"),
              std::string::npos);
}

TEST(WaitGraph, CycleOutputIndependentOfEdgeOrder)
{
    // The six-node shape the seeded deadlock produces, registered in
    // two different orders.
    const std::vector<std::pair<WaitNode, WaitNode>> edges = {
        {coreNode(0), mshrNode(0, 0x100)},
        {mshrNode(0, 0x100), txnNode(0x100)},
        {txnNode(0x100), coreNode(1)},
        {coreNode(1), mshrNode(1, 0x140)},
        {mshrNode(1, 0x140), txnNode(0x140)},
        {txnNode(0x140), coreNode(0)},
    };
    WaitGraph fwd, rev;
    for (const auto &[a, b] : edges)
        fwd.addEdge(a, b, "x");
    for (auto it = edges.rbegin(); it != edges.rend(); ++it)
        rev.addEdge(it->first, it->second, "x");
    ASSERT_EQ(fwd.cycles().size(), 1u);
    EXPECT_EQ(fwd.cycles(), rev.cycles());
    EXPECT_EQ(fwd.cycles()[0].size(), 6u);
}

TEST(WaitGraph, TwoDisjointCyclesBothReported)
{
    WaitGraph g;
    g.addEdge(coreNode(0), coreNode(1), "a");
    g.addEdge(coreNode(1), coreNode(0), "b");
    g.addEdge(coreNode(2), coreNode(3), "c");
    g.addEdge(coreNode(3), coreNode(2), "d");
    EXPECT_EQ(g.cycles().size(), 2u);
}

TEST(WaitGraph, SelfLoopIsACycle)
{
    WaitGraph g;
    g.addEdge(coreNode(5), coreNode(5), "spin");
    ASSERT_EQ(g.cycles().size(), 1u);
    EXPECT_EQ(g.cycles()[0].size(), 1u);
}

TEST(WaitGraph, DuplicateEdgesDoNotDuplicateCycles)
{
    WaitGraph g;
    g.addEdge(coreNode(0), coreNode(1), "a");
    g.addEdge(coreNode(0), coreNode(1), "a again");
    g.addEdge(coreNode(1), coreNode(0), "b");
    EXPECT_EQ(g.cycles().size(), 1u);
}

TEST(WaitGraph, NodeNames)
{
    EXPECT_EQ(coreNode(3).toString(), "core_3");
    EXPECT_EQ(mshrNode(1, 0x1040).toString(), "l1_1.mshr[0x1040]");
    EXPECT_EQ(txnNode(0x80).toString(), "l2dir.txn[0x80]");
    EXPECT_EQ((WaitNode{WaitNode::Kind::StoreBuffer, 2, 0}).toString(),
              "core_2.sb");
    EXPECT_EQ((WaitNode{WaitNode::Kind::Dram, 0, 0}).toString(),
              "dram");
}

TEST(WaitGraph, HaltInsideEpochWaitsOnTheEpoch)
{
    // The store drains, but arbitration holds the commit past the cycle
    // budget: the halting core waits on its epoch, not its empty store
    // buffer.
    isa::Assembler as;
    const Addr var = as.paddedWord("var", 0);
    as.li(isa::a0, var);
    as.li(isa::t0, 1);
    as.st(isa::t0, isa::a0);
    as.fence();
    as.halt();
    isa::Program prog = as.finish();

    harness::SystemConfig cfg = testConfig(1);
    cfg.spec.mode = spec::SpecMode::OnDemand;
    cfg.spec.commit_arb_latency = 1000;
    cfg.max_cycles = 500;
    harness::System sys(cfg, prog);
    EXPECT_FALSE(sys.run());
    ASSERT_TRUE(sys.core(0).idle());

    WaitGraph g;
    sys.buildWaitGraph(g);
    const std::string out = printGraph(g);
    EXPECT_NE(out.find("core_0 -> core_0.spec  [halt_drain]"),
              std::string::npos) << out;
    EXPECT_EQ(out.find("core_0 -> core_0.sb"), std::string::npos) << out;
}

// ---------------------------------------------------------------------
// Watchdog: the seeded deadlock fires it with a named cycle
// ---------------------------------------------------------------------

TEST(Watchdog, SeededDeadlockFiresWithNamedCycle)
{
    workload::SeededDeadlock wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.watchdog_interval = 5'000;
    auto sys = buildDeadlockedSystem(wl, cfg);

    EXPECT_FALSE(sys->run());
    EXPECT_TRUE(sys->hung());

    const std::string &dossier = sys->dossier();
    EXPECT_NE(dossier.find("DEADLOCK CYCLE"), std::string::npos);
    // The cycle names both cores, both MSHRs and both directory
    // transactions: who waits on what, held by whom.
    EXPECT_NE(dossier.find("core_0"), std::string::npos);
    EXPECT_NE(dossier.find("core_1"), std::string::npos);
    EXPECT_NE(dossier.find("l1_0.mshr["), std::string::npos);
    EXPECT_NE(dossier.find("l2dir.txn["), std::string::npos);
    EXPECT_NE(dossier.find("awaiting Fwd*Ack"), std::string::npos);
    // Architectural state and flight-recorder tail ride along.
    EXPECT_NE(dossier.find("architectural state:"), std::string::npos);
    EXPECT_NE(dossier.find("flight recorder tail"), std::string::npos);
    EXPECT_NE(dossier.find("cause=no-retirement"), std::string::npos);

    // Each blocked core's sleep began when it issued the load its MSHR
    // still holds, not at an earlier, unrelated sleep.
    for (std::uint32_t i = 0; i < sys->numCores(); ++i) {
        const cpu::Core &core = sys->core(i);
        ASSERT_TRUE(core.hasPendingAccess()) << "core " << i;
        const Addr block = sys->l1(i).blockAlign(core.waitAddr());
        bool found = false;
        sys->l1(i).forEachMshr([&](const mem::L1Cache::Mshr &m) {
            if (m.block_addr != block)
                return;
            found = true;
            EXPECT_GE(core.sleepBegin(), m.miss_start) << "core " << i;
        });
        EXPECT_TRUE(found) << "core " << i;
    }
}

TEST(Watchdog, DeadlockDossierIsDeterministic)
{
    std::string dossiers[2];
    for (std::string &d : dossiers) {
        workload::SeededDeadlock wl;
        harness::SystemConfig cfg = testConfig(2);
        cfg.watchdog_interval = 5'000;
        auto sys = buildDeadlockedSystem(wl, cfg);
        EXPECT_FALSE(sys->run());
        d = sys->dossier();
    }
    EXPECT_EQ(dossiers[0], dossiers[1]);
}

TEST(Watchdog, DeadlockDossierIdenticalAcrossSweepJobs)
{
    // The same deadlocked run placed on a 1-thread and a 4-thread
    // SweepRunner must produce byte-identical dossiers: dossier
    // construction only reads the run's own SimContext.
    auto run_one = []() -> std::string {
        workload::SeededDeadlock wl;
        harness::SystemConfig cfg = testConfig(2);
        cfg.watchdog_interval = 5'000;
        auto sys = buildDeadlockedSystem(wl, cfg);
        sys->run();
        return sys->dossier();
    };
    std::vector<std::vector<std::string>> by_jobs;
    for (unsigned jobs : {1u, 4u}) {
        harness::SweepRunner runner(jobs);
        std::vector<std::function<std::string()>> tasks(4, run_one);
        by_jobs.push_back(runner.map(std::move(tasks)));
    }
    ASSERT_EQ(by_jobs[0].size(), by_jobs[1].size());
    for (std::size_t i = 0; i < by_jobs[0].size(); ++i) {
        EXPECT_FALSE(by_jobs[0][i].empty());
        EXPECT_EQ(by_jobs[0][i], by_jobs[1][i]);
    }
}

TEST(Watchdog, HealthyRunOfSeededWorkloadPasses)
{
    // Without the fault injection the same program terminates and
    // verifies: the deadlock really is the injected fault.
    workload::SeededDeadlock wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.watchdog_interval = 5'000;
    runAndAudit(wl, cfg);
}

// ---------------------------------------------------------------------
// Watchdog: no false positives
// ---------------------------------------------------------------------

TEST(Watchdog, SlowMemoryDoesNotFalsePositive)
{
    // 320-cycle DRAM with a watchdog window barely above it: every
    // window still retires something, so the watchdog must stay quiet.
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(4);
    cfg.l2.dram_latency = 320;
    cfg.watchdog_interval = 2'000;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_FALSE(sys.hung());
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;
}

TEST(Watchdog, RollbackHeavyRunDoesNotFalsePositive)
{
    // Dekker under speculative SC rolls back constantly, but the
    // exponential cooldown guarantees retirement in every window, so
    // the watchdog must stay quiet.
    workload::Dekker wl;
    harness::SystemConfig cfg =
        testConfig(2, cpu::ConsistencyModel::SC);
    cfg.withSpeculation();
    cfg.watchdog_interval = 2'000;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_FALSE(sys.hung());
    EXPECT_GT(sys.totalRollbacks(), 0u)
        << "test should exercise a rollback-heavy run";
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;
}

TEST(Watchdog, StatsUnchangedByWatchdog)
{
    // The watchdog is pure observation: cycle counts and instruction
    // counts are identical with it on or off.
    std::pair<Tick, std::uint64_t> off, on;
    for (Tick interval : {Tick(0), Tick(1'000)}) {
        workload::LocalLockStream wl;
        harness::SystemConfig cfg = testConfig(2);
        cfg.watchdog_interval = interval;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        ASSERT_TRUE(sys.run());
        auto &slot = interval == 0 ? off : on;
        slot = {sys.runtimeCycles(), sys.totalInstructions()};
    }
    EXPECT_EQ(off, on);
}

// ---------------------------------------------------------------------
// Run loop: the ticks a run stops at to snapshot or probe
// ---------------------------------------------------------------------

namespace
{

std::vector<Tick>
snapshotTicks(const harness::System &sys)
{
    std::vector<Tick> ticks;
    for (const auto &snap : sys.snapshots())
        ticks.push_back(snap.tick);
    return ticks;
}

} // namespace

TEST(RunLoop, SnapshotsKeepTheirIntervalBetweenProbes)
{
    // Probes every 2,500 cycles stop the run between its snapshots
    // every 700: a snapshot lands on each multiple of 700 up to the
    // first one past the last core's halt, and nowhere else.
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.stats_interval = 700;
    cfg.watchdog_interval = 2'500;
    harness::System sys(cfg, wl.build(cfg.num_cores));
    ASSERT_TRUE(sys.run());
    const std::vector<Tick> ticks = snapshotTicks(sys);
    ASSERT_GT(sys.runtimeCycles(), 2 * cfg.watchdog_interval);
    ASSERT_FALSE(ticks.empty());
    for (std::size_t i = 0; i < ticks.size(); ++i)
        EXPECT_EQ(ticks[i], 700 * (i + 1)) << "snapshot " << i;
    EXPECT_LE(ticks.back() - 700, sys.runtimeCycles());
    EXPECT_GT(ticks.back(), sys.runtimeCycles());
}

TEST(RunLoop, HaltBetweenBoundariesTakesTheOwedSnapshot)
{
    // A 300-cycle probe stops the run more often than its 1,000-cycle
    // snapshots.  The cores halt at 1,403, the probe at 1,500 finds the
    // queue drained, and the run takes the snapshot it owes at 2,000
    // before it returns.
    workload::LocalLockStream::Params params;
    params.iters = 16;
    workload::LocalLockStream wl(params);
    harness::SystemConfig cfg = testConfig(2);
    cfg.stats_interval = 1'000;
    cfg.watchdog_interval = 300;
    harness::System sys(cfg, wl.build(cfg.num_cores));
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.runtimeCycles(), 1'403u);
    EXPECT_EQ(snapshotTicks(sys), (std::vector<Tick>{1'000, 2'000}));
}

TEST(RunLoop, RunWithNoBoundaryTakesNoSnapshot)
{
    // No snapshot interval, no probe and no cycle budget: the whole run
    // is one leg of the loop, and it records no snapshot.
    workload::LocalLockStream::Params params;
    params.iters = 16;
    workload::LocalLockStream wl(params);
    harness::SystemConfig cfg = testConfig(2);
    cfg.watchdog_interval = 0;
    cfg.max_cycles = max_tick;
    harness::System sys(cfg, wl.build(cfg.num_cores));
    ASSERT_TRUE(sys.run());
    EXPECT_TRUE(sys.snapshots().empty());
}

TEST(RunLoop, WedgedRunSnapshotsUntilTheProbeFires)
{
    // The seeded deadlock drains its queue at tick 176.  The armed
    // probe keeps the run alive: snapshots go on every 700 cycles, the
    // first window passes on the 31 instructions retired before the
    // wedge, and the second fires at 10,000.
    workload::SeededDeadlock wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.watchdog_interval = 5'000;
    cfg.stats_interval = 700;
    auto sys = buildDeadlockedSystem(wl, cfg);
    EXPECT_FALSE(sys->run());
    EXPECT_TRUE(sys->hung());
    EXPECT_EQ(sys->curTick(), 176u);
    std::vector<Tick> every_700;
    for (Tick t = 700; t <= 9'800; t += 700)
        every_700.push_back(t);
    EXPECT_EQ(snapshotTicks(*sys), every_700);
    const std::string &dossier = sys->dossier();
    EXPECT_EQ(dossier.rfind("=== stall dossier @10000 ===\n", 0), 0u)
        << dossier;
    EXPECT_NE(dossier.find("watchdog: cause=no-retirement "
                           "window=[5000, 10000] instret=31 "
                           "rollbacks_in_window=0\n"),
              std::string::npos)
        << dossier;
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(Blackbox, RingWrapsAndDumpIsValidTrace)
{
    // A tiny ring on a long run: the ring must wrap many times and
    // still dump a valid Chrome trace-event document with provenance.
    // The full trace records every kind, so its non-CoreCommit records
    // are every push the ring has seen, those since overwritten too.
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.blackbox_records = 4;
    cfg.withTracing();
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    const trace::TraceSink &sink = sys.tracer();
    EXPECT_GT(sink.ringPushes(),
              static_cast<std::uint64_t>(sink.ringCapacity()))
        << "run too short to wrap the ring";
    ASSERT_EQ(sink.dropped(), 0u);

    std::ostringstream os;
    sys.writeBlackbox(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"provenance\""), std::string::npos);
    EXPECT_NE(json.find("\"git\""), std::string::npos);

    // Canonical merge order: ticks never decrease, and same-tick
    // records come in component-id order.
    const auto records = trace::blackboxRecords(sink);
    ASSERT_FALSE(records.empty());
    for (std::size_t i = 1; i < records.size(); ++i) {
        const trace::TraceRecord &a = records[i - 1];
        const trace::TraceRecord &b = records[i];
        ASSERT_LE(a.tick, b.tick) << "at record " << i;
        if (a.tick == b.tick) {
            ASSERT_LE(a.comp, b.comp) << "at record " << i;
        }
    }

    // Each component contributes exactly its last ringCapacity()
    // pushes, oldest first.
    const std::size_t ncomps = sink.components().size();
    std::vector<std::vector<trace::TraceRecord>> pushed(ncomps);
    std::vector<std::vector<trace::TraceRecord>> kept(ncomps);
    std::uint64_t commits = 0;
    sink.forEach([&](const trace::TraceRecord &r) {
        if (r.kind ==
            static_cast<std::uint16_t>(trace::EventKind::CoreCommit))
            ++commits;
        else
            pushed[r.comp].push_back(r);
    });
    EXPECT_GT(commits, 0u);
    ASSERT_EQ(sink.size() - commits, sink.ringPushes());
    for (const trace::TraceRecord &r : records)
        kept[r.comp].push_back(r);
    const auto same = [](const trace::TraceRecord &a,
                         const trace::TraceRecord &b) {
        return a.tick == b.tick && a.a0 == b.a0 && a.a1 == b.a1 &&
               a.kind == b.kind && a.aux == b.aux;
    };
    for (std::size_t c = 0; c < ncomps; ++c) {
        const std::size_t n =
            std::min(pushed[c].size(), sink.ringCapacity());
        ASSERT_EQ(kept[c].size(), n) << sink.components()[c];
        EXPECT_TRUE(std::equal(kept[c].begin(), kept[c].end(),
                               pushed[c].end() - n, same))
            << sink.components()[c];
    }
}

TEST(Blackbox, RingDeeperThanRunKeepsEveryPush)
{
    // A ring that never wraps holds every push, so the pushes it
    // counts and the records it dumps agree.  The busiest component
    // of this run pushes under 2k events.
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.blackbox_records = 4096;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    const trace::TraceSink &sink = sys.tracer();
    EXPECT_GT(sink.ringPushes(), 0u);
    EXPECT_EQ(sink.ringPushes(), trace::blackboxRecords(sink).size());
}

TEST(Blackbox, DisabledRingRecordsNothing)
{
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.blackbox_records = 0;
    cfg.watchdog_interval = 0;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.tracer().ringPushes(), 0u);
    EXPECT_TRUE(trace::blackboxRecords(sys.tracer()).empty());
}

TEST(Blackbox, RecorderDoesNotChangeSimulation)
{
    std::pair<Tick, std::uint64_t> with, without;
    for (std::size_t records : {std::size_t(0), std::size_t(256)}) {
        workload::LocalLockStream wl;
        harness::SystemConfig cfg = testConfig(2);
        cfg.blackbox_records = records;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        ASSERT_TRUE(sys.run());
        auto &slot = records == 0 ? without : with;
        slot = {sys.runtimeCycles(), sys.totalInstructions()};
    }
    EXPECT_EQ(with, without);
}

TEST(Blackbox, TailNamesComponentsAndEvents)
{
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    std::ostringstream os;
    sys.writeBlackboxTail(os);
    const std::string tail = os.str();
    EXPECT_NE(tail.find("flight recorder tail"), std::string::npos);
    EXPECT_NE(tail.find("l1_0:"), std::string::npos);
    EXPECT_NE(tail.find("l2dir:"), std::string::npos);
}

// ---------------------------------------------------------------------
// On-demand dossier of a healthy system
// ---------------------------------------------------------------------

TEST(Dossier, HealthySystemReportsNoCycle)
{
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    std::ostringstream os;
    sys.writeStallDossier(os);
    const std::string dossier = os.str();
    EXPECT_NE(dossier.find("stall dossier"), std::string::npos);
    EXPECT_NE(dossier.find("architectural state:"), std::string::npos);
    EXPECT_EQ(dossier.find("DEADLOCK CYCLE"), std::string::npos);
}
