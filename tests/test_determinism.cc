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
 *  - a randomized stress, with events that schedule events, confirms
 *    the two-level queue fires events in exactly the documented
 *    (when, priority, stamp) total order, near and far alike;
 *  - messages whose arrivals tie are delivered in the canonical
 *    (arrival, dst, src) order, before any component event of their
 *    tick, whatever order the sources sent them in;
 *  - at every directory bank count and topology, the stats, profile
 *    and flight-recorder documents are byte-identical run to run and
 *    across sweep worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
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
    // and far (overflow heap), with mixed priorities; every fifth of
    // them schedules a child 1..199 ticks ahead when it fires.  The
    // fire order must match the (when, priority, stamp) total order,
    // where stamp order is the order of the schedule calls.  A child
    // lands after the tick that scheduled it, so the order covers the
    // events scheduled from inside events too.
    constexpr int num_roots = 500;
    struct Stress
    {
        sim::EventQueue eq;
        Random rng{12345};
        std::vector<Tick> when; //!< by id; ids follow schedule order
        std::vector<int> pri;
        std::vector<int> fired;

        int randomPri() { return static_cast<int>(rng.range(0, 4)) * 25; }

        void
        schedule(Tick at)
        {
            const int id = static_cast<int>(when.size());
            when.push_back(at);
            pri.push_back(randomPri());
            eq.scheduleOneShot(at, [this, id] { onFire(id); }, pri[id]);
        }

        void
        onFire(int id)
        {
            EXPECT_EQ(eq.curTick(), when[id]) << "event " << id;
            fired.push_back(id);
            if (id < num_roots && id % 5 == 0)
                schedule(eq.curTick() + 1 + rng.range(0, 198));
        }
    } st;

    for (int id = 0; id < num_roots; ++id) {
        // Mostly a dense band (near entries plus far entries that
        // migrate into the window as time advances); every 50th event
        // lands on a sparse tail with >64-tick gaps, which the queue
        // must pop straight from the far heap (the time-jump path).
        st.schedule((id % 50 == 49)
                        ? 10'000 + static_cast<Tick>(id) * 100
                        : 1 + st.rng.range(0, 199));
    }
    st.eq.run();

    // Every event fired exactly once, in (when, priority, stamp) order.
    std::vector<int> expected(st.when.size());
    std::iota(expected.begin(), expected.end(), 0);
    std::sort(expected.begin(), expected.end(), [&](int a, int b) {
        if (st.when[a] != st.when[b])
            return st.when[a] < st.when[b];
        if (st.pri[a] != st.pri[b])
            return st.pri[a] < st.pri[b];
        return a < b;
    });
    EXPECT_EQ(expected.size(), std::size_t{num_roots + num_roots / 5});
    ASSERT_EQ(st.fired, expected);

    // The stress exercised both pop paths.
    EXPECT_GT(st.eq.nearPops(), 0u);
    EXPECT_GT(st.eq.farPops(), 0u);
    EXPECT_EQ(st.eq.nearPops() + st.eq.farPops(), st.fired.size());
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
// canonical delivery order under tied arrivals
// ---------------------------------------------------------------------

TEST(Determinism, TiedArrivalsDeliverInCanonicalOrder)
{
    // Four sources send to node 0 on the same tick.  Their channels are
    // independent, so same-size messages tie on arrival; the network
    // must deliver them by (arrival, src) no matter how the sends were
    // interleaved.  Each source's own sequence is
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

TEST(Determinism, TiedArrivalsAtManyNodesDeliverInIdOrderBeforeComponents)
{
    // Senders 4..7 each send two same-size messages to each of the
    // destinations 0..3, so the first message of every channel ties
    // with the other channels' on one tick and the second on the next.
    // Within a tick the network must deliver in ascending destination
    // id, in ascending source id at each destination, and all of it
    // before any component event of that tick: a probe that fires on
    // every tick at prio_highest.  Destination 0 answers its first
    // message from sender 4; the answer must arrive on a later tick.
    // Each channel's own sequence is fixed; only the interleaving of
    // the sends across channels is shuffled from round to round.
    constexpr mem::NodeId num_dsts = 4;
    constexpr mem::NodeId first_src = num_dsts;
    constexpr mem::NodeId num_srcs = 4;
    constexpr int per_chan = 2;
    constexpr std::uint64_t reply_id = 1000;
    constexpr Tick horizon = 64;

    struct Entry
    {
        bool probe; //!< the component event, not a delivery
        mem::NodeId src;
        mem::NodeId dst;
        std::uint64_t req_id;
        Tick sent;
        Tick tick;

        bool operator==(const Entry &) const = default;
    };
    struct Recorder : mem::MsgReceiver
    {
        sim::SimContext *ctx = nullptr;
        mem::Network *net = nullptr;
        std::vector<Entry> log;
        void
        receiveMsg(const mem::Msg &m) override
        {
            log.push_back(
                {false, m.src, m.dst, m.req_id, m.sent_tick, ctx->curTick()});
            if (m.src == first_src && m.dst == 0 && m.req_id == 1) {
                mem::Msg reply;
                reply.src = 0;
                reply.dst = first_src;
                reply.req_id = reply_id;
                net->send(reply);
            }
        }
    };

    // The per-channel message sequences, fixed across rounds.
    std::vector<std::vector<mem::Msg>> per_chan_msgs;
    for (mem::NodeId s = first_src; s < first_src + num_srcs; ++s) {
        for (mem::NodeId d = 0; d < num_dsts; ++d) {
            std::vector<mem::Msg> seq;
            for (int k = 0; k < per_chan; ++k) {
                mem::Msg m;
                m.src = s;
                m.dst = d;
                m.req_id = per_chan_msgs.size() * per_chan + k + 1;
                seq.push_back(m);
            }
            per_chan_msgs.push_back(seq);
        }
    }

    Random rng(13579);
    std::vector<Entry> reference;
    for (int round = 0; round < 20; ++round) {
        sim::SimContext ctx;
        mem::Network net(ctx, "net", mem::Network::Params{});
        Recorder rec;
        rec.ctx = &ctx;
        rec.net = &net;
        for (mem::NodeId n = 0; n < first_src + num_srcs; ++n)
            net.registerEndpoint(n, &rec);

        std::function<void()> probe = [&] {
            rec.log.push_back({true, 0, 0, 0, 0, ctx.curTick()});
            if (ctx.curTick() < horizon) {
                ctx.eventq.scheduleOneShot(ctx.curTick() + 1,
                                           [&] { probe(); },
                                           sim::prio_highest);
            }
        };
        ctx.eventq.scheduleOneShot(0, [&] { probe(); }, sim::prio_highest);

        // A random interleaving of the per-channel sequences.
        std::vector<std::size_t> next(per_chan_msgs.size(), 0);
        std::vector<std::size_t> pending;
        for (std::size_t c = 0; c < per_chan_msgs.size(); ++c) {
            for (int k = 0; k < per_chan; ++k)
                pending.push_back(c);
        }
        for (std::size_t i = pending.size(); i > 1; --i)
            std::swap(pending[i - 1], pending[rng.range(0, i - 1)]);
        for (std::size_t c : pending)
            net.send(per_chan_msgs[c][next[c]++]);
        ctx.eventq.run();

        if (round > 0) {
            EXPECT_EQ(rec.log, reference) << "round " << round;
            continue;
        }
        reference = rec.log;

        std::size_t deliveries = 0;
        std::size_t widest_tick = 0; // most deliveries on one tick
        std::size_t run = 0;
        Tick reply_sent = 0;
        for (std::size_t i = 0; i < reference.size(); ++i) {
            const Entry &e = reference[i];
            if (e.probe) {
                run = 0;
            } else {
                ++deliveries;
                widest_tick = std::max(widest_tick, ++run);
                if (e.src == first_src && e.dst == 0 && e.req_id == 1)
                    reply_sent = e.tick;
                if (e.req_id == reply_id) {
                    EXPECT_EQ(e.sent, reply_sent);
                    EXPECT_GT(e.tick, e.sent);
                }
            }
            if (i == 0)
                continue;
            const Entry &prev = reference[i - 1];
            ASSERT_LE(prev.tick, e.tick) << "entry " << i;
            if (prev.tick != e.tick)
                continue;
            // Same tick: the probe is last, deliveries ascend by
            // (dst, src).
            ASSERT_FALSE(prev.probe) << "tick " << e.tick
                                     << " ran a delivery after the probe";
            if (!e.probe) {
                ASSERT_TRUE(prev.dst < e.dst ||
                            (prev.dst == e.dst && prev.src < e.src))
                    << "tick " << e.tick << ": " << prev.src << "->"
                    << prev.dst << " before " << e.src << "->" << e.dst;
            }
        }
        EXPECT_EQ(deliveries, num_srcs * num_dsts * per_chan + 1);
        EXPECT_EQ(widest_tick, num_srcs * num_dsts);
        EXPECT_GT(reply_sent, 0u);
        EXPECT_TRUE(reference.back().probe);
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
