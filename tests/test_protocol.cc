/**
 * @file
 * Protocol-level unit tests: drive L1 caches and the directory directly
 * (no cores) through a real network, stepping the event queue, and
 * inspect the resulting MESI states, directory bookkeeping and message
 * behaviour -- including the transient races (writeback vs probe,
 * buffered fill vs invalidation) and the speculation-specific states
 * (WbClean, MStale).  Two whole-system cases use sixteen cores to miss
 * on a single L2 set all at once; one pins the run's exact counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "harness/system.hh"
#include "isa/assembler.hh"
#include "mem/directory.hh"
#include "mem/l1_cache.hh"
#include "mem/network.hh"
#include "sim/reqtrace.hh"
#include "sim/sim_object.hh"
#include "tests/sim_test_util.hh"

using namespace fenceless;
using namespace fenceless::mem;

namespace
{

/** Bound completion: record the loaded value in the T at @p obj. */
template <typename T>
void
storeValue(void *obj, std::uint64_t, std::uint64_t value)
{
    *static_cast<T *>(obj) = value;
}

/** Bound completion: flag the bool at @p obj. */
void
setDone(void *obj, std::uint64_t, std::uint64_t)
{
    *static_cast<bool *>(obj) = true;
}

/** Bound completion: count completions in the int at @p obj. */
void
countDone(void *obj, std::uint64_t, std::uint64_t)
{
    ++*static_cast<int *>(obj);
}

/** Raw AMO: fetch-and-add of amo_a. */
std::uint64_t
amoAddFn(std::uint8_t, std::uint64_t old_value, std::uint64_t a,
         std::uint64_t)
{
    return old_value + a;
}

/**
 * A tiny two-L1 + directory test bench.  @p banks splits the directory
 * into address-interleaved banks (nodes 2 .. 2 + banks - 1), the same
 * arrangement the System builds; 1 keeps the classic monolith.
 */
class ProtocolBench
{
  public:
    explicit ProtocolBench(std::uint32_t nbanks = 1,
                           Topology topology = Topology::Crossbar)
        : banks(nbanks)
    {
        Network::Params net_params;
        net_params.topology = topology;
        net_params.latency = 2;
        net_params.hop_latency = 1;
        network = std::make_unique<Network>(ctx, "network", net_params,
                                            2 + banks);

        const DirectoryMap dirmap(2, banks, 6);
        L1Cache::Params l1p;
        l1p.size = 1024;
        l1p.assoc = 2;
        l1p.hit_latency = 1;
        l1s.push_back(std::make_unique<L1Cache>(ctx, "l1_0", l1p, 0,
                                                dirmap, *network));
        l1s.push_back(std::make_unique<L1Cache>(ctx, "l1_1", l1p, 1,
                                                dirmap, *network));

        Directory::Params l2p;
        l2p.size = 64 * 1024 / banks;
        l2p.assoc = 4;
        l2p.latency = 2;
        l2p.dram_latency = 10;
        for (std::uint32_t b = 0; b < banks; ++b) {
            dirs.push_back(std::make_unique<Directory>(
                ctx,
                banks == 1 ? std::string("dir")
                           : "dir.bank" + std::to_string(b),
                l2p, dirmap, b, *network, backing));
        }
    }

    /** The bank serving @p addr (bank 0 when monolithic). */
    Directory &
    bankFor(Addr addr) const
    {
        return *dirs[(addr >> 6) & (banks - 1)];
    }

    /** Issue a load and run to completion. @return the loaded value. */
    std::uint64_t
    load(unsigned core, Addr addr, unsigned size = 8)
    {
        std::optional<std::uint64_t> result;
        MemRequest req;
        req.op = MemOp::Load;
        req.addr = addr;
        req.size = static_cast<std::uint8_t>(size);
        req.done_fn = storeValue<std::optional<std::uint64_t>>;
        req.done_obj = &result;
        l1s[core]->access(std::move(req));
        ctx.eventq.run();
        EXPECT_TRUE(result.has_value()) << "load did not complete";
        return result.value_or(0);
    }

    /** Issue a store and run to completion. */
    void
    store(unsigned core, Addr addr, std::uint64_t value,
          unsigned size = 8)
    {
        bool done = false;
        MemRequest req;
        req.op = MemOp::Store;
        req.addr = addr;
        req.size = static_cast<std::uint8_t>(size);
        req.store_data = value;
        req.done_fn = setDone;
        req.done_obj = &done;
        l1s[core]->access(std::move(req));
        ctx.eventq.run();
        EXPECT_TRUE(done) << "store did not complete";
    }

    /** Issue an AMO and run to completion. @return the old value. */
    std::uint64_t
    amoAdd(unsigned core, Addr addr, std::uint64_t delta)
    {
        std::optional<std::uint64_t> result;
        MemRequest req;
        req.op = MemOp::Amo;
        req.addr = addr;
        req.size = 8;
        req.amo_fn = amoAddFn;
        req.amo_a = delta;
        req.done_fn = storeValue<std::optional<std::uint64_t>>;
        req.done_obj = &result;
        l1s[core]->access(std::move(req));
        ctx.eventq.run();
        EXPECT_TRUE(result.has_value()) << "AMO did not complete";
        return result.value_or(0);
    }

    L1State
    state(unsigned core, Addr addr) const
    {
        const L1Block *blk = l1s[core]->findBlock(addr);
        return blk ? blk->state : L1State::I;
    }

    const L2Block *dirEntry(Addr addr) const
    {
        return bankFor(addr).findBlock(addr);
    }

    /** The L2 copy's 8-byte word at @p addr. */
    std::uint64_t
    l2Word(Addr addr) const
    {
        EXPECT_NE(dirEntry(addr), nullptr) << "no L2 copy";
        return bankFor(addr).debugRead(addr, 8);
    }

    /** Summed over banks, so callers are bank-count agnostic. */
    std::uint64_t
    dirStat(const std::string &name) const
    {
        std::uint64_t total = 0;
        for (const auto &d : dirs)
            total += d->statGroup().scalarCount(name);
        return total;
    }

    /** System::auditCoherence's checks, on a quiesced bench. */
    void
    auditCoherence() const
    {
        for (const auto &l1 : l1s)
            EXPECT_TRUE(l1->quiesced()) << l1->name();
        for (const auto &d : dirs)
            EXPECT_TRUE(d->quiesced()) << d->name();
        for (unsigned c = 0; c < l1s.size(); ++c) {
            l1s[c]->forEachBlock([&](const L1Block &blk) {
                const L2Block *l2 = dirEntry(blk.block_addr);
                ASSERT_NE(l2, nullptr) << "inclusivity";
                if (blk.state == L1State::S) {
                    EXPECT_TRUE(l2->isSharer(c));
                    EXPECT_FALSE(l2->hasOwner());
                    EXPECT_TRUE(bankFor(blk.block_addr)
                                    .holdsData(*l2, l1s[c]->blockData(blk)));
                } else {
                    EXPECT_EQ(l2->owner, c);
                    EXPECT_FALSE(l2->hasSharers());
                }
            });
        }
        for (const auto &d : dirs) {
            d->forEachBlock([&](const L2Block &l2) {
                if (l2.hasOwner()) {
                    const L1State st = state(l2.owner, l2.block_addr);
                    EXPECT_TRUE(st != L1State::I && st != L1State::S);
                }
                for (unsigned c = 0; c < l1s.size(); ++c) {
                    if (l2.isSharer(c)) {
                        EXPECT_EQ(state(c, l2.block_addr), L1State::S);
                    }
                }
            });
        }
    }

    sim::SimContext ctx;
    FlatMemory backing;
    std::uint32_t banks;
    std::unique_ptr<Network> network;
    std::vector<std::unique_ptr<L1Cache>> l1s;
    std::vector<std::unique_ptr<Directory>> dirs;
};

} // namespace

TEST(Protocol2, FirstReaderGetsExclusive)
{
    ProtocolBench b;
    b.backing.write64(0x1000, 77);
    EXPECT_EQ(b.load(0, 0x1000), 77u);
    EXPECT_EQ(b.state(0, 0x1000), L1State::E);
    const L2Block *e = b.dirEntry(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->owner, 0u);
    EXPECT_FALSE(e->hasSharers());
}

TEST(Protocol2, SecondReaderDowngradesToShared)
{
    ProtocolBench b;
    b.backing.write64(0x1000, 5);
    b.load(0, 0x1000);
    EXPECT_EQ(b.load(1, 0x1000), 5u);
    EXPECT_EQ(b.state(0, 0x1000), L1State::S);
    EXPECT_EQ(b.state(1, 0x1000), L1State::S);
    const L2Block *e = b.dirEntry(0x1000);
    EXPECT_FALSE(e->hasOwner());
    EXPECT_TRUE(e->isSharer(0));
    EXPECT_TRUE(e->isSharer(1));
}

TEST(Protocol2, SilentExclusiveToModifiedUpgrade)
{
    ProtocolBench b;
    b.load(0, 0x1000);
    EXPECT_EQ(b.state(0, 0x1000), L1State::E);
    b.store(0, 0x1000, 42);
    EXPECT_EQ(b.state(0, 0x1000), L1State::M);
    // No extra directory transaction for the silent upgrade.
    EXPECT_EQ(b.dirStat("getm"), 0u);
}

TEST(Protocol2, WriterInvalidatesSharers)
{
    ProtocolBench b;
    b.load(0, 0x1000);
    b.load(1, 0x1000);
    b.store(1, 0x1000, 9);
    EXPECT_EQ(b.state(0, 0x1000), L1State::I);
    EXPECT_EQ(b.state(1, 0x1000), L1State::M);
    const L2Block *e = b.dirEntry(0x1000);
    EXPECT_EQ(e->owner, 1u);
    EXPECT_FALSE(e->isSharer(0));
    EXPECT_GE(b.dirStat("invs_sent"), 1u);
}

TEST(Protocol2, DirtyDataForwardsOnRead)
{
    ProtocolBench b;
    b.store(0, 0x1000, 1234);
    EXPECT_EQ(b.load(1, 0x1000), 1234u);
    EXPECT_EQ(b.state(0, 0x1000), L1State::S);
    EXPECT_EQ(b.state(1, 0x1000), L1State::S);
    EXPECT_GE(b.dirStat("fwds_sent"), 1u);
    // The forward updated the L2 copy.
    EXPECT_EQ(b.l2Word(0x1000), 1234u);
}

TEST(Protocol2, DirtyDataForwardsOnWrite)
{
    ProtocolBench b;
    b.store(0, 0x1000, 50);
    b.store(1, 0x1000, 60);
    EXPECT_EQ(b.state(0, 0x1000), L1State::I);
    EXPECT_EQ(b.state(1, 0x1000), L1State::M);
    EXPECT_EQ(b.load(1, 0x1000), 60u);
}

TEST(Protocol2, OwnershipPingPongKeepsLatestValue)
{
    ProtocolBench b;
    for (int i = 0; i < 10; ++i)
        b.store(i % 2, 0x2000, static_cast<std::uint64_t>(i));
    EXPECT_EQ(b.load(0, 0x2000), 9u);
}

TEST(Protocol2, AmoIsReadModifyWrite)
{
    ProtocolBench b;
    b.backing.write64(0x3000, 10);
    EXPECT_EQ(b.amoAdd(0, 0x3000, 5), 10u);
    EXPECT_EQ(b.amoAdd(1, 0x3000, 7), 15u);
    EXPECT_EQ(b.load(0, 0x3000), 22u);
}

TEST(Protocol2, SubwordStoresMergeWithinBlock)
{
    ProtocolBench b;
    b.store(0, 0x1000, 0xffffffffffffffffULL, 8);
    b.store(0, 0x1002, 0xab, 1);
    b.store(1, 0x1004, 0xcdef, 2); // forces ownership migration
    EXPECT_EQ(b.load(0, 0x1000, 8), 0xffffcdefffabffffULL);
}

TEST(Protocol2, EvictionWritesBackDirtyData)
{
    ProtocolBench b;
    // 1 KiB, 2-way, 64B blocks -> 8 sets; same set every 512 bytes.
    b.store(0, 0x1000, 111);
    b.store(0, 0x1000 + 512, 222);
    b.store(0, 0x1000 + 1024, 333); // evicts 0x1000
    EXPECT_EQ(b.state(0, 0x1000), L1State::I);
    // The directory received the PutM and owns the current data.
    EXPECT_EQ(b.l2Word(0x1000), 111u);
    EXPECT_FALSE(b.dirEntry(0x1000)->hasOwner());
    // And a re-read returns it.
    EXPECT_EQ(b.load(0, 0x1000), 111u);
}

TEST(Protocol2, CleanEvictionSendsPutS)
{
    ProtocolBench b;
    b.load(0, 0x1000);
    b.load(1, 0x1000); // both S
    const auto puts_before = b.dirStat("puts");
    b.load(0, 0x1000 + 512);
    b.load(0, 0x1000 + 1024); // evicts 0x1000 from S
    EXPECT_EQ(b.state(0, 0x1000), L1State::I);
    EXPECT_GT(b.dirStat("puts"), puts_before);
    EXPECT_FALSE(b.dirEntry(0x1000)->isSharer(0));
    EXPECT_TRUE(b.dirEntry(0x1000)->isSharer(1));
}

TEST(Protocol2, L2RecallPullsBackOwnedBlock)
{
    ProtocolBench b;
    // L2: 64 KiB, 4-way, 64B -> 256 sets; same L2 set every 16 KiB.
    // Fill one L2 set with four blocks held across BOTH L1s (two each,
    // matching the 2-way L1 sets), then touch a fifth: the L2 victim
    // is still owned, so the directory must recall it.
    b.store(0, 0x10000 + 0 * 0x4000, 100);
    b.store(0, 0x10000 + 1 * 0x4000, 101);
    b.store(1, 0x10000 + 2 * 0x4000, 102);
    b.store(1, 0x10000 + 3 * 0x4000, 103);
    b.store(0, 0x10000 + 4 * 0x4000, 104);
    EXPECT_GE(b.dirStat("recalls"), 1u);
    // All data survives.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(b.load(1, 0x10000 + i * 0x4000), 100u + i);
}

TEST(Protocol2, ConcurrentLoadsSameBlockCoalesceInMshr)
{
    ProtocolBench b;
    b.backing.write64(0x5000, 1);
    b.backing.write64(0x5008, 2);
    std::uint64_t r1 = 0, r2 = 0;
    MemRequest a;
    a.op = MemOp::Load;
    a.addr = 0x5000;
    a.size = 8;
    a.done_fn = storeValue<std::uint64_t>;
    a.done_obj = &r1;
    MemRequest c;
    c.op = MemOp::Load;
    c.addr = 0x5008;
    c.size = 8;
    c.done_fn = storeValue<std::uint64_t>;
    c.done_obj = &r2;
    b.l1s[0]->access(std::move(a));
    b.l1s[0]->access(std::move(c)); // queued on the same MSHR
    b.ctx.eventq.run();
    EXPECT_EQ(r1, 1u);
    EXPECT_EQ(r2, 2u);
    // Exactly one directory transaction for the block.
    EXPECT_EQ(b.dirStat("gets"), 1u);
}

TEST(Protocol2, RacingWritersBothComplete)
{
    ProtocolBench b;
    bool done0 = false, done1 = false;
    MemRequest a;
    a.op = MemOp::Store;
    a.addr = 0x6000;
    a.size = 8;
    a.store_data = 10;
    a.done_fn = setDone;
    a.done_obj = &done0;
    MemRequest c;
    c.op = MemOp::Store;
    c.addr = 0x6000;
    c.size = 8;
    c.store_data = 20;
    c.done_fn = setDone;
    c.done_obj = &done1;
    b.l1s[0]->access(std::move(a));
    b.l1s[1]->access(std::move(c)); // same tick, racing GetMs
    b.ctx.eventq.run();
    EXPECT_TRUE(done0);
    EXPECT_TRUE(done1);
    // The block ends with exactly one owner holding one of the values.
    const std::uint64_t v = b.load(0, 0x6000);
    EXPECT_TRUE(v == 10 || v == 20);
}

TEST(Protocol2, ReadersAndWriterRace)
{
    ProtocolBench b;
    b.backing.write64(0x7000, 7);
    std::uint64_t r = 0;
    bool done = false;
    MemRequest ld;
    ld.op = MemOp::Load;
    ld.addr = 0x7000;
    ld.size = 8;
    ld.done_fn = storeValue<std::uint64_t>;
    ld.done_obj = &r;
    MemRequest st;
    st.op = MemOp::Store;
    st.addr = 0x7000;
    st.size = 8;
    st.store_data = 8;
    st.done_fn = setDone;
    st.done_obj = &done;
    b.l1s[0]->access(std::move(ld));
    b.l1s[1]->access(std::move(st));
    b.ctx.eventq.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(r == 7 || r == 8);
    // Afterwards everyone agrees.
    EXPECT_EQ(b.load(0, 0x7000), 8u);
    EXPECT_EQ(b.load(1, 0x7000), 8u);
}

TEST(Protocol2, PrefetchExGrantsOwnershipWithoutWriting)
{
    ProtocolBench b;
    b.backing.write64(0x8000, 99);
    bool done = false;
    MemRequest pf;
    pf.op = MemOp::PrefetchEx;
    pf.addr = 0x8000;
    pf.size = 8;
    pf.done_fn = setDone;
    pf.done_obj = &done;
    b.l1s[0]->access(std::move(pf));
    b.ctx.eventq.run();
    EXPECT_TRUE(done);
    const L1Block *blk = b.l1s[0]->findBlock(0x8000);
    ASSERT_NE(blk, nullptr);
    EXPECT_TRUE(blk->state == L1State::M || blk->state == L1State::E);
    EXPECT_FALSE(blk->dirty);
    EXPECT_EQ(b.load(0, 0x8000), 99u);
}

TEST(Protocol2, BlockBoundaryAccessRejected)
{
    ProtocolBench b;
    MemRequest req;
    req.op = MemOp::Load;
    req.addr = 0x103c; // 4 bytes before a 64B boundary
    req.size = 8;
    req.done_fn = [](void *, std::uint64_t, std::uint64_t) {};
    EXPECT_DEATH(b.l1s[0]->access(std::move(req)), "crosses");
}

TEST(Protocol2, NetworkPreservesChannelFifo)
{
    sim::SimContext ctx;
    Network::Params p;
    p.latency = 3;
    Network net(ctx, "net", p, 2);

    struct Collector : MsgReceiver
    {
        std::vector<MsgType> seen;
        void receiveMsg(const Msg &m) override
        {
            seen.push_back(m.type);
        }
    };

    Collector sink;
    net.registerEndpoint(0, &sink);
    Collector src;
    net.registerEndpoint(1, &src);

    // A large data message followed by a small control message: the
    // control message must not overtake despite shorter serialization.
    Msg big;
    big.type = MsgType::DataM;
    big.src = 1;
    big.dst = 0;
    big.data.assign(64, 0xff);
    net.send(big);
    Msg small;
    small.type = MsgType::Inv;
    small.src = 1;
    small.dst = 0;
    net.send(small);
    ctx.eventq.run();

    ASSERT_EQ(sink.seen.size(), 2u);
    EXPECT_EQ(sink.seen[0], MsgType::DataM);
    EXPECT_EQ(sink.seen[1], MsgType::Inv);
}

// ---------------------------------------------------------------------
// Speculation tags at the protocol level (mock controller, no cores)
// ---------------------------------------------------------------------

namespace
{

/** A scriptable SpecHooks implementation. */
class MockSpec : public SpecHooks
{
  public:
    bool specActive() const override { return active; }
    std::uint32_t specEpoch() const override { return epoch; }

    void
    specConflict(Addr block_addr, bool remote_write, bool had_sw)
        override
    {
        conflicts.push_back({block_addr, remote_write, had_sw});
        // A real controller flash-invalidates the tags by bumping the
        // epoch; SW blocks are converted by the L1 helper.
        l1->rollbackSpecWrites();
        ++epoch;
    }

    bool
    specOverflow(Addr, bool) override
    {
        ++overflows;
        if (park_overflows > 0) {
            // Keep the tags: the fill parks on the full set.
            --park_overflows;
            return false;
        }
        l1->rollbackSpecWrites();
        ++epoch;
        return true;
    }

    struct Conflict
    {
        Addr addr;
        bool remote_write;
        bool had_sw;
    };

    L1Cache *l1 = nullptr;
    bool active = true;
    std::uint32_t epoch = 1;
    std::vector<Conflict> conflicts;
    unsigned overflows = 0;
    unsigned park_overflows = 0; //!< next overflows answered by parking
};

/** ProtocolBench with a mock speculation controller on L1 0. */
class SpecBench : public ProtocolBench
{
  public:
    SpecBench()
    {
        mock.l1 = l1s[0].get();
        l1s[0]->setSpecHooks(&mock);
    }

    /** Speculative load on core 0. */
    std::uint64_t
    specLoad(Addr addr)
    {
        std::optional<std::uint64_t> result;
        MemRequest req;
        req.op = MemOp::Load;
        req.addr = addr;
        req.size = 8;
        req.spec = true;
        req.spec_epoch = mock.epoch;
        req.done_fn = storeValue<std::optional<std::uint64_t>>;
        req.done_obj = &result;
        l1s[0]->access(std::move(req));
        ctx.eventq.run();
        EXPECT_TRUE(result.has_value());
        return result.value_or(0);
    }

    /** Speculative store on core 0. */
    void
    specStore(Addr addr, std::uint64_t value)
    {
        bool done = false;
        MemRequest req;
        req.op = MemOp::Store;
        req.addr = addr;
        req.size = 8;
        req.store_data = value;
        req.spec = true;
        req.spec_epoch = mock.epoch;
        req.done_fn = setDone;
        req.done_obj = &done;
        l1s[0]->access(std::move(req));
        ctx.eventq.run();
        EXPECT_TRUE(done);
    }

    MockSpec mock;
};

} // namespace

TEST(SpecProtocol, RemoteWriteOnSpecReadConflicts)
{
    SpecBench b;
    b.backing.write64(0x1000, 5);
    EXPECT_EQ(b.specLoad(0x1000), 5u);
    EXPECT_EQ(b.l1s[0]->numSpecReadBlocks(), 1u);

    b.store(1, 0x1000, 6); // remote write -> conflict
    ASSERT_EQ(b.mock.conflicts.size(), 1u);
    EXPECT_EQ(b.mock.conflicts[0].addr, 0x1000u);
    EXPECT_TRUE(b.mock.conflicts[0].remote_write);
    EXPECT_FALSE(b.mock.conflicts[0].had_sw);
    EXPECT_EQ(b.l1s[0]->numSpecReadBlocks(), 0u);
    // The remote writer proceeded normally.
    EXPECT_EQ(b.load(1, 0x1000), 6u);
}

TEST(SpecProtocol, RemoteReadOnSpecReadDoesNotConflict)
{
    SpecBench b;
    b.backing.write64(0x1000, 5);
    b.specLoad(0x1000);
    EXPECT_EQ(b.load(1, 0x1000), 5u); // remote READ: no conflict
    EXPECT_TRUE(b.mock.conflicts.empty());
    // And the tag survives the downgrade to S.
    EXPECT_EQ(b.l1s[0]->numSpecReadBlocks(), 1u);
}

TEST(SpecProtocol, RemoteReadOnSpecWriteConflictsAndHidesData)
{
    SpecBench b;
    b.backing.write64(0x1000, 5);
    b.specStore(0x1000, 99); // speculative write (SW)
    EXPECT_EQ(b.l1s[0]->numSpecWrittenBlocks(), 1u);

    // A remote reader must trigger the conflict AND must NOT observe
    // the speculative 99: the rollback discards it and the directory
    // serves the pre-speculation copy.
    EXPECT_EQ(b.load(1, 0x1000), 5u);
    ASSERT_EQ(b.mock.conflicts.size(), 1u);
    EXPECT_FALSE(b.mock.conflicts[0].remote_write);
    EXPECT_TRUE(b.mock.conflicts[0].had_sw);
}

TEST(SpecProtocol, CleanBeforeSpecWritePreservesDirtyData)
{
    SpecBench b;
    // Commit 1111 as ordinary dirty data (non-speculative store).
    b.mock.active = false;
    b.store(0, 0x1000, 1111);
    b.mock.active = true;

    // Speculatively overwrite; the L1 must push 1111 to the L2 first.
    b.specStore(0x1000, 2222);
    EXPECT_GE(b.l1s[0]->statGroup().scalarCount("wb_clean"), 1u);
    EXPECT_EQ(b.l2Word(0x1000), 1111u);

    // Remote read -> rollback; the reader sees the committed 1111.
    EXPECT_EQ(b.load(1, 0x1000), 1111u);
}

TEST(SpecProtocol, CommitMakesSpecWritesArchitectural)
{
    SpecBench b;
    b.specStore(0x1000, 42);
    // Flash commit: SW -> dirty, epoch bump invalidates tags.
    b.l1s[0]->commitSpecWrites();
    ++b.mock.epoch;
    EXPECT_EQ(b.l1s[0]->numSpecWrittenBlocks(), 0u);
    // A remote reader now sees the committed data, with no conflict.
    EXPECT_EQ(b.load(1, 0x1000), 42u);
    EXPECT_TRUE(b.mock.conflicts.empty());
}

TEST(SpecProtocol, MStaleRefetchesFromDirectory)
{
    SpecBench b;
    b.backing.write64(0x1000, 7);
    b.specStore(0x1000, 8);
    // Roll back directly (as the controller would on any conflict).
    b.l1s[0]->rollbackSpecWrites();
    ++b.mock.epoch;
    const L1Block *blk = b.l1s[0]->findBlock(0x1000);
    ASSERT_NE(blk, nullptr);
    EXPECT_EQ(blk->state, L1State::MStale);
    // Directory still records us as owner.
    EXPECT_EQ(b.dirEntry(0x1000)->owner, 0u);
    // A local access refetches the pre-speculation value.
    b.mock.active = false;
    EXPECT_EQ(b.load(0, 0x1000), 7u);
    EXPECT_EQ(b.l1s[0]->findBlock(0x1000)->state, L1State::M);
}

TEST(SpecProtocol, StaleEpochStoreIsDropped)
{
    SpecBench b;
    b.backing.write64(0x1000, 3);
    // Issue a speculative store, then advance the epoch before it is
    // applied... here it applies synchronously on a hit, so instead
    // test the stale-drop path directly: a request carrying an old
    // epoch id must not modify memory.
    b.specStore(0x1000, 50); // epoch 1, applied
    b.l1s[0]->rollbackSpecWrites();
    ++b.mock.epoch; // now epoch 2

    bool done = false;
    MemRequest req;
    req.op = MemOp::Store;
    req.addr = 0x1008;
    req.size = 8;
    req.store_data = 60;
    req.spec = true;
    req.spec_epoch = 1; // stale!
    req.done_fn = setDone;
    req.done_obj = &done;
    b.l1s[0]->access(std::move(req));
    b.ctx.eventq.run();
    EXPECT_TRUE(done); // completes as a no-op
    b.mock.active = false;
    EXPECT_EQ(b.load(0, 0x1008), 0u); // the stale 60 was never applied
    EXPECT_EQ(b.load(0, 0x1000), 3u); // pre-speculation value intact
}

TEST(SpecProtocol, OverflowInvokedWhenSetFullOfTags)
{
    SpecBench b;
    // 1 KiB, 2-way: fill one set's both ways with spec-read blocks,
    // then demand a third block in the same set (same-set stride 512).
    b.backing.write64(0x2000, 1);
    b.backing.write64(0x2200, 2);
    b.backing.write64(0x2400, 3);
    b.specLoad(0x2000);
    b.specLoad(0x2200);
    EXPECT_EQ(b.mock.overflows, 0u);
    EXPECT_EQ(b.specLoad(0x2400), 3u);
    EXPECT_EQ(b.mock.overflows, 1u); // mock resolved it by rolling back
}

// ---------------------------------------------------------------------
// Buffered fills yanked by a probe: the fill is parked on a set full of
// speculatively-read blocks when the directory, which already counts
// the L1 as owner or sharer, probes it for another core.  The L1 hands
// the fill back and re-requests under the same request id.
// ---------------------------------------------------------------------

namespace
{

constexpr Addr yank_addr = 0x2400; //!< set 0 of the 1 KiB 2-way L1
constexpr std::uint64_t yank_pc = 0x1234;

/** SpecBench tracing every request, with L1 0's set 0 tag-pinned. */
class YankBench : public SpecBench
{
  public:
    YankBench()
    {
        ctx.spans.configure(1);
        specLoad(0x2000);
        specLoad(0x2200);
        // The first fill into the pinned set parks; the next overflow
        // rolls back, so the re-requested fill installs.
        mock.park_overflows = 1;
    }

    /** Start a plain load of yank_addr on core 0 and run until idle. */
    void
    parkLoad()
    {
        MemRequest req;
        req.op = MemOp::Load;
        req.addr = yank_addr;
        req.size = 8;
        req.pc = yank_pc;
        req.done_fn = storeValue<std::optional<std::uint64_t>>;
        req.done_obj = &parked;
        l1s[0]->access(std::move(req));
        ctx.eventq.run();
        EXPECT_FALSE(parked.has_value()) << "the fill did not park";
        EXPECT_EQ(l1s[0]->statGroup().scalarCount("spec_overflow_waits"),
                  1u);
    }

    /** Check the yanked request's assembled span. */
    void
    expectRetriedSpan() const
    {
        const reqtrace::SpanSet set =
            reqtrace::assembleSpans(ctx.spans.events(), 1);
        const reqtrace::Span *span = nullptr;
        for (const reqtrace::Span &s : set.spans) {
            if (!s.waiter && s.core() == 0 && s.block == yank_addr)
                span = &s;
        }
        ASSERT_NE(span, nullptr);
        EXPECT_EQ(set.incomplete, 0u);
        EXPECT_EQ(span->retries, 1u);
        EXPECT_EQ(span->pc, yank_pc);
        Tick tiled = 0;
        unsigned retry_stages = 0;
        for (const reqtrace::SpanStage &st : span->stages) {
            tiled += st.cycles;
            if (st.flags & reqtrace::span_flag_retry) {
                ++retry_stages;
                EXPECT_EQ(st.stage, reqtrace::Stage::ReqNet);
                EXPECT_EQ(st.aux, yank_pc);
            }
        }
        EXPECT_EQ(retry_stages, 1u);
        EXPECT_EQ(tiled, span->latency());
    }

    std::optional<std::uint64_t> parked;
};

} // namespace

TEST(FillYank, ForwardYanksBufferedFill)
{
    YankBench b;
    b.backing.write64(yank_addr, 7);
    b.parkLoad(); // DataE: the directory now records core 0 as owner

    // Core 1's read forwards to core 0, which returns the buffered
    // data and re-requests; both end up sharing the block.
    EXPECT_EQ(b.load(1, yank_addr), 7u);
    ASSERT_TRUE(b.parked.has_value());
    EXPECT_EQ(*b.parked, 7u);
    EXPECT_EQ(b.l1s[0]->statGroup().scalarCount("fill_retries"), 1u);
    EXPECT_EQ(b.state(0, yank_addr), L1State::S);
    EXPECT_EQ(b.state(1, yank_addr), L1State::S);
    b.auditCoherence();
    b.expectRetriedSpan();
}

TEST(FillYank, InvalidationYanksBufferedSharedFill)
{
    YankBench b;
    b.backing.write64(yank_addr, 7);
    EXPECT_EQ(b.load(1, yank_addr), 7u); // core 1 takes it in E
    b.parkLoad(); // DataS: core 0 is now a recorded sharer

    // Core 1's upgrade invalidates core 0, which acks, drops the
    // buffered fill and re-requests; the re-request reads the new value.
    b.store(1, yank_addr, 8);
    ASSERT_TRUE(b.parked.has_value());
    EXPECT_EQ(*b.parked, 8u);
    EXPECT_EQ(b.l1s[0]->statGroup().scalarCount("fill_retries"), 1u);
    EXPECT_EQ(b.state(0, yank_addr), L1State::S);
    EXPECT_EQ(b.state(1, yank_addr), L1State::S);
    b.auditCoherence();
    b.expectRetriedSpan();
}

// ---------------------------------------------------------------------
// Banked directory: the same MESI machinery split across
// address-interleaved banks (see mem::DirectoryMap).
// ---------------------------------------------------------------------

TEST(BankedProtocol, RequestsRouteToTheirHomeBank)
{
    ProtocolBench b(4);
    // Block index selects the bank: consecutive blocks round-robin.
    for (std::uint32_t bank = 0; bank < 4; ++bank)
        b.backing.write64(0x1000 + bank * 64, 10 + bank);
    for (std::uint32_t bank = 0; bank < 4; ++bank)
        EXPECT_EQ(b.load(0, 0x1000 + bank * 64), 10u + bank);
    // Each bank served exactly its own block, nobody else's.
    for (std::uint32_t bank = 0; bank < 4; ++bank) {
        EXPECT_EQ(b.dirs[bank]->statGroup().scalarCount("gets"), 1u)
            << "bank " << bank;
        EXPECT_NE(b.dirs[bank]->findBlock(0x1000 + bank * 64), nullptr);
    }
}

TEST(BankedProtocol, OwnershipTransferAcrossBankedDirectory)
{
    ProtocolBench b(4);
    // Write on core 0, read on core 1, at one address per bank: the
    // full M -> S downgrade (Fwd + WbClean bookkeeping) must work
    // through every bank.
    for (std::uint32_t bank = 0; bank < 4; ++bank) {
        const Addr a = 0x2000 + bank * 64;
        b.store(0, a, 77 + bank);
        EXPECT_EQ(b.load(1, a), 77u + bank);
        EXPECT_EQ(b.state(0, a), L1State::S);
        EXPECT_EQ(b.state(1, a), L1State::S);
        const L2Block *e = b.dirEntry(a);
        ASSERT_NE(e, nullptr);
        EXPECT_TRUE(e->isSharer(0));
        EXPECT_TRUE(e->isSharer(1));
        EXPECT_FALSE(e->hasOwner());
    }
    EXPECT_EQ(b.dirStat("fwds_sent"), 4u);
}

TEST(BankedProtocol, TotalsMatchTheMonolithicDirectory)
{
    // The same request sequence must produce the same values and the
    // same transaction totals whether the directory is one bank or
    // eight -- banking repartitions the work, it must not change it.
    auto drive = [](ProtocolBench &b) {
        for (int i = 0; i < 16; ++i)
            b.store(0, 0x3000 + i * 64, 1000 + i);
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(b.load(1, 0x3000 + i * 64), 1000u + i);
        b.store(1, 0x3000, 5);
        EXPECT_EQ(b.amoAdd(0, 0x3000, 7), 5u);
    };
    ProtocolBench mono(1), banked(8);
    drive(mono);
    drive(banked);
    for (const char *stat : {"gets", "getm", "puts", "fwds_sent",
                             "invs_sent", "dram_reads"}) {
        EXPECT_EQ(mono.dirStat(stat), banked.dirStat(stat))
            << "stat " << stat;
    }
    EXPECT_EQ(mono.load(0, 0x3000), banked.load(0, 0x3000));
}

TEST(BankedProtocol, RecallWorksInsideABankSlice)
{
    // 64 KiB / 4 banks = 16 KiB per bank, 4-way, 64 sets: five blocks
    // with stride 0x4000 share bank 0 AND one set of its slice, so the
    // fifth forces an L2 eviction recall inside the bank.
    ProtocolBench b(4);
    // Spread across both L1s so the L2 victim still has a live L1 copy
    // (an unowned victim would evict silently, recall-free).
    b.store(0, 0x10000 + 0 * 0x4000, 100);
    b.store(0, 0x10000 + 1 * 0x4000, 101);
    b.store(1, 0x10000 + 2 * 0x4000, 102);
    b.store(1, 0x10000 + 3 * 0x4000, 103);
    b.store(0, 0x10000 + 4 * 0x4000, 104);
    EXPECT_GE(b.dirs[0]->statGroup().scalarCount("recalls"), 1u);
    for (std::uint32_t bank = 1; bank < 4; ++bank)
        EXPECT_EQ(b.dirs[bank]->statGroup().scalarCount("recalls"), 0u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(b.load(0, 0x10000 + i * 0x4000), 100u + i);
}

TEST(BankedProtocol, BankingComposesWithRingAndMesh)
{
    // Banks behind a real NoC: per-hop routing must not perturb the
    // protocol, only the timing.  Same sequence, same final state and
    // transaction totals on every topology.
    auto drive = [](ProtocolBench &b) {
        for (int i = 0; i < 8; ++i)
            b.store(i % 2, 0x4000 + i * 64, 40 + i);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(b.load((i + 1) % 2, 0x4000 + i * 64), 40u + i);
    };
    ProtocolBench crossbar(4, Topology::Crossbar);
    ProtocolBench ring(4, Topology::Ring);
    ProtocolBench mesh(4, Topology::Mesh);
    drive(crossbar);
    drive(ring);
    drive(mesh);
    for (const char *stat : {"gets", "getm", "fwds_sent", "invs_sent"}) {
        EXPECT_EQ(crossbar.dirStat(stat), ring.dirStat(stat))
            << "stat " << stat;
        EXPECT_EQ(crossbar.dirStat(stat), mesh.dirStat(stat))
            << "stat " << stat;
    }
}

// ---------------------------------------------------------------------
// Outstanding-state walks and a full L2 set
// ---------------------------------------------------------------------

TEST(Protocol2, MshrAndTxnWalksAreBlockOrdered)
{
    // MSHR slots and the directory's transaction table are filled in
    // miss order; dossiers and fill retries must still see them in
    // ascending block order.  Issue misses in descending order.
    ProtocolBench b;
    int done = 0;
    for (Addr blk = 6; blk >= 1; --blk) {
        MemRequest req;
        req.op = MemOp::Load;
        req.addr = 0x5000 + blk * 64;
        req.done_fn = countDone;
        req.done_obj = &done;
        b.l1s[0]->access(std::move(req));
    }
    std::vector<Addr> mshrs;
    b.l1s[0]->forEachMshr([&](const L1Cache::Mshr &m) {
        mshrs.push_back(m.block_addr);
    });
    ASSERT_EQ(mshrs.size(), 6u);
    EXPECT_TRUE(std::is_sorted(mshrs.begin(), mshrs.end()));

    // Requests reach the directory by tick 8 and wait on DRAM past 12.
    b.ctx.eventq.run(12);
    std::vector<Addr> txns;
    b.dirs[0]->forEachTxn([&](const Directory::TxnView &t) {
        txns.push_back(t.block);
        EXPECT_EQ(t.phase, Directory::Phase::Dram);
    });
    EXPECT_EQ(txns, mshrs);

    b.ctx.eventq.run();
    EXPECT_EQ(done, 6);
    EXPECT_TRUE(b.l1s[0]->quiesced());
    EXPECT_TRUE(b.dirs[0]->quiesced());
}

TEST(Protocol2, TxnIndexGrowsAndRetiresOutOfOrder)
{
    // Forty requesters each take a block in E, then each asks for its
    // neighbour's block in M: forty forward transactions wait in one
    // bank, more than its transaction index starts with room for.  The
    // owners answer in a scrambled order; every answer must find its
    // transaction, and the walk must stay in block order as they retire.
    constexpr std::uint32_t n = 40;
    struct Inbox : MsgReceiver
    {
        std::vector<Msg> msgs;
        void receiveMsg(const Msg &msg) override { msgs.push_back(msg); }
    };
    sim::SimContext ctx;
    FlatMemory backing;
    Network net(ctx, "network", Network::Params{}, n + 1);
    std::vector<Inbox> l1s(n);
    for (NodeId i = 0; i < n; ++i)
        net.registerEndpoint(i, &l1s[i]);
    Directory dir(ctx, "dir", Directory::Params{}, DirectoryMap(n, 1, 6),
                  0, net, backing);

    const auto block = [](std::uint32_t i) { return Addr{0x10000} + i * 64; };
    const auto send = [&](Msg msg) {
        msg.dst = n;
        net.send(msg);
    };
    for (std::uint32_t i = 0; i < n; ++i) {
        Msg get;
        get.type = MsgType::GetS;
        get.src = i;
        get.block_addr = block(i);
        send(get);
    }
    ctx.eventq.run();
    for (std::uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(l1s[i].msgs.size(), 1u);
        EXPECT_EQ(l1s[i].msgs[0].type, MsgType::DataE);
        l1s[i].msgs.clear();
    }

    for (std::uint32_t i = 0; i < n; ++i) {
        Msg get;
        get.type = MsgType::GetM;
        get.src = (i + 1) % n;
        get.block_addr = block(i);
        send(get);
    }
    ctx.eventq.run();
    std::vector<Addr> open;
    for (std::uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(l1s[i].msgs.size(), 1u);
        EXPECT_EQ(l1s[i].msgs[0].type, MsgType::FwdGetM);
        l1s[i].msgs.clear();
        open.push_back(block(i));
    }
    const auto walk = [&dir] {
        std::vector<Addr> blocks;
        dir.forEachTxn([&](const Directory::TxnView &t) {
            EXPECT_EQ(t.phase, Directory::Phase::Fwd);
            blocks.push_back(t.block);
        });
        return blocks;
    };
    EXPECT_EQ(walk(), open);

    // 17 is coprime to 40, so k * 17 % 40 visits every owner once.
    for (std::uint32_t k = 0; k < n; ++k) {
        const std::uint32_t owner = k * 17 % n;
        Msg ack;
        ack.type = MsgType::FwdDataAck;
        ack.src = owner;
        ack.block_addr = block(owner);
        ack.data.assign(64, static_cast<std::uint8_t>(owner));
        send(ack);
        ctx.eventq.run();
        const std::vector<Msg> &granted = l1s[(owner + 1) % n].msgs;
        ASSERT_EQ(granted.size(), 1u);
        EXPECT_EQ(granted[0].type, MsgType::DataM);
        EXPECT_EQ(granted[0].block_addr, block(owner));
        l1s[(owner + 1) % n].msgs.clear();
        open.erase(std::find(open.begin(), open.end(), block(owner)));
        EXPECT_EQ(walk(), open) << "after retiring block " << owner;
    }
    EXPECT_TRUE(dir.quiesced());
}

namespace
{

/**
 * Each core stores to @p rounds distinct blocks of bank 0, set 0
 * (stride 1 KiB): block k gets k + 1.  Sets @p arr to the first block.
 */
isa::Program
fullL2SetBurst(const harness::SystemConfig &cfg, std::uint64_t rounds,
               Addr *arr)
{
    constexpr std::uint64_t stride = 1024;
    isa::Assembler as;
    *arr = as.alloc("arr", cfg.num_cores * rounds * stride, 16 * stride);
    as.li(isa::a0, *arr);
    as.slli(isa::t0, isa::tp, 10);
    as.add(isa::a0, isa::a0, isa::t0);
    as.addi(isa::t1, isa::tp, 1);
    as.li(isa::t2, cfg.num_cores * stride);
    as.li(isa::s0, rounds);
    as.label("loop");
    as.st(isa::t1, isa::a0);
    as.add(isa::a0, isa::a0, isa::t2);
    as.addi(isa::t1, isa::t1, cfg.num_cores);
    as.addi(isa::s0, isa::s0, -1);
    as.bne(isa::s0, isa::x0, "loop");
    as.halt();
    return as.finish();
}

} // namespace

TEST(BankedProtocol, FullL2SetParksMissesUntilAWayFrees)
{
    // Sixteen cores miss at once on distinct blocks of one set of a
    // 2-way L2 slice: every way is soon held by an active transaction,
    // and later misses must wait for one to finish instead of
    // aborting.
    const harness::SystemConfig cfg = test::fullL2SetMachine();
    constexpr std::uint64_t rounds = 4;
    constexpr std::uint64_t stride = 1024;
    Addr arr = 0;
    const isa::Program prog = fullL2SetBurst(cfg, rounds, &arr);

    // Mid-burst, the wait-for graph ties parked misses to the
    // transactions holding their set's ways.
    harness::SystemConfig early = cfg;
    early.max_cycles = 60;
    harness::System cut(early, prog);
    EXPECT_FALSE(cut.run());
    sim::WaitGraph g;
    cut.buildWaitGraph(g);
    std::size_t way_waits = 0;
    for (const sim::WaitEdge &e : g.edges())
        way_waits += e.label == "awaiting a free way of its L2 set";
    EXPECT_GT(way_waits, 0u);

    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    for (std::uint64_t k = 0; k < cfg.num_cores * rounds; ++k) {
        EXPECT_EQ(sys.debugRead(arr + k * stride, 8), k + 1)
            << "block " << k;
    }
    EXPECT_GT(sys.stats().findGroup("l2dir.bank0")->scalarCount("recalls"),
              0u);
    sys.auditCoherence();
}

// ---------------------------------------------------------------------
// Replacement order, pinned
// ---------------------------------------------------------------------

TEST(ReplacementOrder, FullL2SetBurstCountsExact)
{
    // Six blocks per core, all in one 2-way set of bank 0: the burst
    // recalls, writes back and parks on the full set throughout.
    const harness::SystemConfig cfg = test::fullL2SetMachine();
    Addr arr = 0;
    const isa::Program prog = fullL2SetBurst(cfg, 6, &arr);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    sys.auditCoherence();
    const test::ReplacementCounts want{
        .cycles = 2943, .insts = 592, .banks = {{94, 96, 94}, {0, 0, 0}}};
    EXPECT_EQ(test::replacementCounts(sys), want);
}
