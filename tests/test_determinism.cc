/**
 * @file
 * Determinism guarantees of the simulation kernel.
 *
 * The calendar event queue, the L1 hit fast path, and the idle-core
 * sleep protocol are all pure performance work: they must not change a
 * single stat.  These tests pin that down several ways:
 *
 *  - the same configuration run twice produces byte-identical stats
 *    JSON (covers bucket-vs-heap ordering and idle-sleep accounting);
 *  - a host-parallel sweep produces the same per-task results
 *    regardless of worker count;
 *  - a randomized schedule/deschedule/reschedule stress confirms the
 *    two-level queue fires events in exactly the documented
 *    (when, priority, stamp) total order, near and far alike;
 *  - messages whose arrivals tie at one node are delivered in the
 *    canonical (arrival, src, chan_seq) order, whatever order the
 *    sources sent them in;
 *  - at every directory bank count and topology, the stats, profile
 *    and flight-recorder documents are byte-identical run to run and
 *    across sweep worker counts.
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "base/random.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "sim/eventq.hh"
#include "workload/microbench.hh"

using namespace fenceless;

namespace
{

/** Build, run, and render one system's full stats registry. */
std::string
runAndRenderStats(const harness::SystemConfig &cfg)
{
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    EXPECT_TRUE(sys.run());
    std::ostringstream os;
    sys.writeStatsJson(os);
    return os.str();
}

/** Every externally-visible document of one run. */
struct RunArtifacts
{
    bool completed = false;
    std::string stats;        //!< writeStatsJson
    std::string profile_json; //!< profile().writeJson
    std::string folded;       //!< profile().writeFolded
    std::string blackbox;     //!< writeBlackbox
};

/** Build and run one 8-core system; collect all output documents. */
RunArtifacts
runArtifacts(std::uint32_t dir_banks, mem::Topology topology)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 8;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withSpeculation().withProfiling();
    cfg.withDirBanks(dir_banks).withTopology(topology);
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);

    RunArtifacts a;
    a.completed = sys.run();
    std::ostringstream stats, profile, folded, blackbox;
    sys.writeStatsJson(stats);
    sys.profile().writeJson(profile);
    sys.profile().writeFolded(folded);
    sys.writeBlackbox(blackbox);
    a.stats = stats.str();
    a.profile_json = profile.str();
    a.folded = folded.str();
    a.blackbox = blackbox.str();
    return a;
}

/** Sum one scalar stat across all core groups. */
double
sumCoreStat(harness::System &sys, const std::string &stat)
{
    double total = 0;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const auto *group =
            sys.stats().findGroup("core_" + std::to_string(i));
        EXPECT_NE(group, nullptr);
        const auto *s = group->find(stat);
        EXPECT_NE(s, nullptr) << stat;
        total += s->value();
    }
    return total;
}

} // namespace

// ---------------------------------------------------------------------
// same config, same stats -- byte for byte
// ---------------------------------------------------------------------

TEST(Determinism, SameConfigTwiceByteIdenticalBaseline)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.model = cpu::ConsistencyModel::TSO;
    const std::string first = runAndRenderStats(cfg);
    const std::string second = runAndRenderStats(cfg);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(Determinism, SameConfigTwiceByteIdenticalSpeculative)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withSpeculation();
    const std::string first = runAndRenderStats(cfg);
    const std::string second = runAndRenderStats(cfg);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(Determinism, SameConfigTwiceByteIdenticalSC)
{
    // SC stalls on every ordering point, so this leans hardest on the
    // idle-sleep bulk accounting.
    harness::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.model = cpu::ConsistencyModel::SC;
    const std::string first = runAndRenderStats(cfg);
    const std::string second = runAndRenderStats(cfg);
    EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------
// sweep worker count must not leak into results
// ---------------------------------------------------------------------

TEST(Determinism, SweepJobsOneVsMany)
{
    auto make_tasks = [] {
        std::vector<std::function<std::string()>> tasks;
        for (std::uint32_t cores : {1u, 2u, 4u}) {
            for (auto model : {cpu::ConsistencyModel::TSO,
                               cpu::ConsistencyModel::SC}) {
                tasks.push_back([cores, model]() -> std::string {
                    harness::SystemConfig cfg;
                    cfg.num_cores = cores;
                    cfg.model = model;
                    return runAndRenderStats(cfg);
                });
            }
        }
        return tasks;
    };

    harness::SweepRunner serial(1);
    harness::SweepRunner parallel(4);
    const auto seq = serial.map(make_tasks());
    const auto par = parallel.map(make_tasks());
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i], par[i]) << "task " << i;
}

// ---------------------------------------------------------------------
// calendar queue vs the documented total order
// ---------------------------------------------------------------------

TEST(Determinism, CalendarQueueRandomizedOrdering)
{
    // Randomly schedule events near (inside the 64-tick bucket window)
    // and far (overflow heap), with mixed priorities, then deschedule
    // and reschedule a slice of them.  The fire order must match the
    // (when, priority, stamp) total order, where stamp order is the
    // order of the last (re)schedule call.
    constexpr int num_events = 500;
    sim::EventQueue eq;
    Random rng(12345);

    struct Fired
    {
        int id;
        Tick when;
    };
    std::vector<Fired> fired;

    std::deque<sim::EventFunctionWrapper> events;
    std::vector<Tick> when(num_events, 0);
    std::vector<int> pri(num_events, 0);
    std::vector<std::uint64_t> seq(num_events, 0); // last schedule op
    std::vector<bool> live(num_events, false);
    std::uint64_t op = 0;

    for (int id = 0; id < num_events; ++id) {
        pri[id] = static_cast<int>(rng.range(0, 4)) * 25; // 0..100
        events.emplace_back(
            [id, &eq, &fired] { fired.push_back({id, eq.curTick()}); },
            "determinism.rec", pri[id]);
    }
    for (int id = 0; id < num_events; ++id) {
        // Mostly a dense band (near entries plus far entries that
        // migrate into the window as time advances); every 50th event
        // lands on a sparse tail with >64-tick gaps, which the queue
        // must pop straight from the far heap (the time-jump path).
        when[id] = (id % 50 == 49)
            ? 10'000 + static_cast<Tick>(id) * 100
            : 1 + rng.range(0, 199);
        eq.schedule(&events[id], when[id]);
        seq[id] = op++;
        live[id] = true;
    }
    // Perturb: deschedule ~10%, reschedule ~30% (leaving stale
    // entries for the pop path to skip).
    for (int id = 0; id < num_events; ++id) {
        const std::uint64_t roll = rng.range(0, 9);
        if (roll == 0) {
            eq.deschedule(&events[id]);
            live[id] = false;
        } else if (roll <= 3) {
            when[id] = 1 + rng.range(0, 199);
            eq.reschedule(&events[id], when[id]);
            seq[id] = op++;
        }
    }

    eq.run();

    // Every live event fired exactly once; no descheduled event fired.
    std::vector<int> count(num_events, 0);
    for (const Fired &f : fired)
        ++count[f.id];
    for (int id = 0; id < num_events; ++id)
        EXPECT_EQ(count[id], live[id] ? 1 : 0) << "event " << id;

    // Fire order == sort by (when, priority, stamp).
    std::vector<int> expected;
    for (int id = 0; id < num_events; ++id) {
        if (live[id])
            expected.push_back(id);
    }
    std::sort(expected.begin(), expected.end(), [&](int a, int b) {
        if (when[a] != when[b])
            return when[a] < when[b];
        if (pri[a] != pri[b])
            return pri[a] < pri[b];
        return seq[a] < seq[b];
    });
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(fired[i].id, expected[i]) << "position " << i;
        EXPECT_EQ(fired[i].when, when[fired[i].id]);
    }

    // The stress actually exercised all three pop paths.
    EXPECT_GT(eq.stalePops(), 0u);
    EXPECT_GT(eq.nearPops(), 0u);
    EXPECT_GT(eq.farPops(), 0u);
}

// ---------------------------------------------------------------------
// idle-sleep stall accounting
// ---------------------------------------------------------------------

TEST(Determinism, IdleSleepStallAccountingExercised)
{
    // A contended spinlock misses constantly, so cores spend most of
    // their time asleep waiting on loads and atomics.  The bulk
    // accounting must (a) be deterministic and (b) actually attribute
    // the slept cycles.
    harness::SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.model = cpu::ConsistencyModel::TSO;
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    const double load_stalls = sumCoreStat(sys, "stall_load_access");
    const double amo_stalls = sumCoreStat(sys, "stall_amo_access");
    EXPECT_GT(load_stalls + amo_stalls, 0.0);

    // A core cannot have stalled longer than it ran: per core, the
    // accounted cycles (instructions + all stall reasons) must not
    // exceed its halt tick.
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const auto *group =
            sys.stats().findGroup("core_" + std::to_string(i));
        ASSERT_NE(group, nullptr);
        double accounted = group->find("instructions")->value();
        for (int r = 0;
             r < static_cast<int>(cpu::StallReason::NumReasons); ++r) {
            accounted += group
                ->find(std::string("stall_") + cpu::stallReasonName(
                           static_cast<cpu::StallReason>(r)))
                ->value();
        }
        EXPECT_LE(accounted, group->find("halt_tick")->value() + 1)
            << "core " << i;
    }
}

// ---------------------------------------------------------------------
// canonical ingress order under tied arrivals
// ---------------------------------------------------------------------

TEST(Determinism, TiedArrivalsDeliverInCanonicalOrder)
{
    // Four sources send to node 0 on the same tick.  Their channels are
    // independent, so same-size messages tie on arrival; the per-node
    // ingress heap must deliver by (arrival, src, chan_seq) no matter
    // how the sends were interleaved.  Each source's own sequence is
    // fixed (it shapes its channel's timing); only the interleaving
    // across sources is shuffled from round to round.
    Random rng(98765);

    struct Delivery
    {
        mem::NodeId src;
        std::uint64_t req_id;
        Tick tick;

        bool operator==(const Delivery &) const = default;
    };
    struct Collector : mem::MsgReceiver
    {
        sim::SimContext *ctx = nullptr;
        std::vector<Delivery> seen;
        void
        receiveMsg(const mem::Msg &m) override
        {
            seen.push_back({m.src, m.req_id, ctx->curTick()});
        }
    };

    // The per-source message sequences, fixed across rounds.
    constexpr mem::NodeId num_sources = 4;
    std::vector<std::vector<mem::Msg>> per_src(num_sources + 1);
    Random msg_rng(4242);
    for (int i = 0; i < 40; ++i) {
        mem::Msg m;
        m.type = (i % 3 == 0) ? mem::MsgType::DataM : mem::MsgType::GetS;
        m.src = 1 + static_cast<mem::NodeId>(
                        msg_rng.range(0, num_sources - 1));
        m.dst = 0;
        m.block_addr = 64 * static_cast<Addr>(i);
        m.req_id = static_cast<std::uint64_t>(i) + 1;
        if (m.type == mem::MsgType::DataM)
            m.data.assign(64, 0xab);
        per_src[m.src].push_back(m);
    }

    std::vector<Delivery> reference;
    for (int round = 0; round < 20; ++round) {
        sim::SimContext ctx;
        mem::Network::Params p;
        p.latency = 4;
        mem::Network net(ctx, "net", p);
        Collector sink;
        sink.ctx = &ctx;
        net.registerEndpoint(0, &sink);

        // A random interleaving of the per-source sequences.
        std::vector<std::size_t> next(num_sources + 1, 0);
        std::vector<mem::NodeId> pending;
        for (mem::NodeId s = 1; s <= num_sources; ++s) {
            for (std::size_t k = 0; k < per_src[s].size(); ++k)
                pending.push_back(s);
        }
        for (std::size_t i = pending.size(); i > 1; --i)
            std::swap(pending[i - 1], pending[rng.range(0, i - 1)]);
        for (mem::NodeId s : pending)
            net.send(per_src[s][next[s]++]);
        ctx.eventq.run();

        ASSERT_EQ(sink.seen.size(), 40u);
        if (round == 0) {
            reference = sink.seen;
            // Tick-monotone; within a tick, ascending source node id;
            // and the shuffle did produce ties across sources.
            bool tied = false;
            for (std::size_t i = 1; i < reference.size(); ++i) {
                const Delivery &a = reference[i - 1];
                const Delivery &b = reference[i];
                ASSERT_LE(a.tick, b.tick);
                if (a.tick == b.tick) {
                    ASSERT_LT(a.src, b.src);
                    tied = true;
                }
            }
            EXPECT_TRUE(tied);
        } else {
            EXPECT_EQ(sink.seen, reference) << "round " << round;
        }
    }
}

// ---------------------------------------------------------------------
// banked directories and NoCs: byte-identity run to run and across
// sweep worker counts
// ---------------------------------------------------------------------

TEST(Determinism, BankedTopologiesByteIdenticalRunToRunAndAcrossSweepJobs)
{
    // Banking and topology change WHAT is simulated, so configurations
    // legitimately differ from each other; each one's documents must
    // not depend on the run or on how many sweep workers ran it.
    auto make_tasks = [] {
        std::vector<std::function<RunArtifacts()>> tasks;
        for (std::uint32_t banks : {1u, 4u, 8u}) {
            for (auto topo : {mem::Topology::Crossbar,
                              mem::Topology::Ring,
                              mem::Topology::Mesh}) {
                tasks.push_back([banks, topo] {
                    return runArtifacts(banks, topo);
                });
            }
        }
        return tasks;
    };

    harness::SweepRunner serial(1);
    harness::SweepRunner parallel(4);
    const auto seq = serial.map(make_tasks());
    const auto par = parallel.map(make_tasks());
    ASSERT_EQ(seq.size(), 9u);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(seq[i].completed) << "config " << i;
        EXPECT_FALSE(seq[i].profile_json.empty()) << "config " << i;
        EXPECT_FALSE(seq[i].blackbox.empty()) << "config " << i;
        EXPECT_EQ(seq[i].stats, par[i].stats) << "config " << i;
        EXPECT_EQ(seq[i].profile_json, par[i].profile_json)
            << "config " << i;
        EXPECT_EQ(seq[i].folded, par[i].folded) << "config " << i;
        EXPECT_EQ(seq[i].blackbox, par[i].blackbox) << "config " << i;
    }
}

TEST(Determinism, BankedMesh64CoreEndToEnd)
{
    // The headline configuration: 64 simulated cores on a 9x8 mesh
    // with 8 directory banks.  Light per-core work keeps the test
    // quick; completion + run-to-run byte-identity is the point.
    auto run = [] {
        harness::SystemConfig cfg;
        cfg.num_cores = 64;
        cfg.model = cpu::ConsistencyModel::TSO;
        cfg.withDirBanks(8).withTopology(mem::Topology::Mesh);
        workload::LocalLockStream::Params p;
        p.iters = 8;
        workload::LocalLockStream wl(p);
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        EXPECT_TRUE(sys.run());
        std::ostringstream os;
        sys.writeStatsJson(os);
        return os.str();
    };
    const std::string ref = run();
    EXPECT_NE(ref.find("l2dir.bank7"), std::string::npos);
    EXPECT_NE(ref.find("network.hops"), std::string::npos);
    EXPECT_EQ(run(), ref);
}
