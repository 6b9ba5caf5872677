/**
 * @file
 * Memory-system tests: the cache array, then whole-protocol behaviour
 * driven through small guest programs (hits, misses, evictions,
 * ownership migration, invalidations), with coherence audits after
 * every run.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "base/random.hh"
#include "isa/assembler.hh"
#include "mem/cache_array.hh"
#include "mem/directory.hh"
#include "mem/l1_cache.hh"
#include "tests/sim_test_util.hh"

using namespace fenceless;
using namespace fenceless::isa;
using namespace fenceless::test;

// ---------------------------------------------------------------------
// CacheArray
// ---------------------------------------------------------------------

namespace
{

struct TestBlock : mem::CacheBlockBase
{
    int tag_state;

    static constexpr TestBlock
    fresh(Addr block_addr)
    {
        return {{block_addr, 0}, 0};
    }
};

/** Install @p addr into its set's lowest free way and touch it. */
TestBlock *
fill(mem::CacheArray<TestBlock> &arr, Addr addr)
{
    TestBlock *b = arr.findFreeWay(addr);
    if (b) {
        arr.install(*b, addr);
        arr.touch(*b);
    }
    return b;
}

} // namespace

TEST(CacheArray, Geometry)
{
    mem::CacheArray<TestBlock> arr(4096, 4, 64);
    EXPECT_EQ(arr.numSets(), 16u);
    EXPECT_EQ(arr.numBlocks(), 64u);
    EXPECT_EQ(arr.blockSize(), 64u);
    EXPECT_EQ(arr.blockAlign(0x12345), 0x12340u);
    // Same set every numSets * blockSize bytes.
    EXPECT_EQ(arr.setIndex(0x0), arr.setIndex(16 * 64));
    EXPECT_NE(arr.setIndex(0x0), arr.setIndex(64));
}

TEST(CacheArray, ShiftAndMaskMatchDivideAndModulo)
{
    Random rng(7);
    for (unsigned assoc : {1u, 8u, 16u, 64u}) {
        for (unsigned block_size : {32u, 64u}) {
            for (unsigned shift = 0; shift <= 6; ++shift) {
                const std::uint64_t sets = 32;
                mem::CacheArray<TestBlock> arr(sets * assoc * block_size,
                                               assoc, block_size, shift);
                for (int i = 0; i < 200; ++i) {
                    const Addr a = rng.next() >> (i % 40);
                    ASSERT_EQ(arr.setIndex(a),
                              ((a / block_size) >> shift) % sets)
                        << "assoc " << assoc << " block " << block_size
                        << " shift " << shift << " addr 0x" << std::hex
                        << a;
                    ASSERT_EQ(arr.blockAlign(a), a / block_size * block_size);
                }
            }
        }
    }
}

TEST(CacheArray, FindAndTouch)
{
    mem::CacheArray<TestBlock> arr(4096, 4, 64);
    EXPECT_EQ(arr.find(0x100), nullptr);
    TestBlock *b = fill(arr, 0x100);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->block_addr, 0x100u);
    EXPECT_EQ(arr.find(0x100), b);
    EXPECT_EQ(arr.find(0x120), b); // same block
    EXPECT_EQ(arr.find(0x140), nullptr);
    arr.invalidate(*b);
    EXPECT_EQ(arr.find(0x100), nullptr);
    EXPECT_EQ(arr.findFreeWay(0x100), b);
}

TEST(CacheArray, LruVictim)
{
    mem::CacheArray<TestBlock> arr(4 * 64, 4, 64); // one set, 4 ways
    for (Addr a = 0; a < 4 * 64; a += 64)
        ASSERT_NE(fill(arr, a), nullptr);
    EXPECT_EQ(arr.findFreeWay(0x400), nullptr);
    // Touch block 0 so block 64 becomes LRU.
    arr.touch(*arr.find(0));
    TestBlock *victim =
        arr.findVictim(0x400, [](const TestBlock &) { return true; });
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->block_addr, 64u);
}

TEST(CacheArray, VictimPredicateFilters)
{
    mem::CacheArray<TestBlock> arr(4 * 64, 4, 64);
    for (Addr a = 0; a < 4 * 64; a += 64)
        fill(arr, a)->tag_state = (a == 64) ? 1 : 0;
    TestBlock *victim = arr.findVictim(
        0x400, [](const TestBlock &b) { return b.tag_state == 1; });
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->block_addr, 64u);
    victim = arr.findVictim(
        0x400, [](const TestBlock &b) { return b.tag_state == 2; });
    EXPECT_EQ(victim, nullptr);
}

TEST(CacheArray, ValidWayMaskOrdersEveryWayOfASixtyFourWaySet)
{
    // Two sets of 64 ways: filling set 0 sets every bit of its mask,
    // the edge where a one-per-way mask is the whole word.
    constexpr unsigned ways = 64;
    mem::CacheArray<TestBlock> arr(2 * ways * 64, ways, 64);
    const Addr set_stride = 2 * 64; // next block of the same set
    auto addrOf = [&](unsigned w) { return w * set_stride; };

    // Free ways are taken lowest first; untouched ways tie on LRU and
    // the lowest wins.
    TestBlock *way0 = arr.findFreeWay(0);
    ASSERT_NE(way0, nullptr);
    for (unsigned w = 0; w < ways; ++w) {
        TestBlock *b = arr.findFreeWay(addrOf(w));
        ASSERT_EQ(b, way0 + w) << "way " << w;
        arr.install(*b, addrOf(w));
        EXPECT_EQ(arr.findVictim(0, [](const TestBlock &) { return true; }),
                  way0);
    }
    EXPECT_EQ(arr.findFreeWay(0), nullptr);
    for (unsigned w = 0; w < ways; ++w)
        EXPECT_EQ(arr.find(addrOf(w)), way0 + w) << "way " << w;

    // LRU: touch every way, then all but the top one again.
    for (unsigned w = 0; w < ways; ++w)
        arr.touch(way0[w]);
    auto any = [](const TestBlock &) { return true; };
    EXPECT_EQ(arr.findVictim(0, any), way0 + 0);
    for (unsigned w = 0; w + 1 < ways; ++w)
        arr.touch(way0[w]);
    EXPECT_EQ(arr.findVictim(0, any), way0 + ways - 1);
    EXPECT_EQ(arr.findVictim(0, [&](const TestBlock &b) {
                  return &b != way0 + ways - 1 && &b != way0 + 0;
              }),
              way0 + 1);

    // Set 1 holds two blocks; forEach walks set 0's ways, then set 1's.
    TestBlock *s1a = fill(arr, 64);
    TestBlock *s1b = fill(arr, 64 + set_stride);
    ASSERT_EQ(s1b, s1a + 1);

    // Invalidating frees exactly those ways.
    for (unsigned w : {63u, 5u, 17u})
        arr.invalidate(way0[w]);
    for (unsigned w : {5u, 17u, 63u})
        EXPECT_EQ(arr.find(addrOf(w)), nullptr) << "way " << w;
    EXPECT_EQ(arr.find(addrOf(6)), way0 + 6);
    EXPECT_EQ(arr.findFreeWay(0), way0 + 5);
    EXPECT_EQ(arr.findVictim(0, any), way0 + 0);

    std::vector<const TestBlock *> seen;
    arr.forEach([&](const TestBlock &b) { seen.push_back(&b); });
    std::vector<const TestBlock *> expected;
    for (unsigned w = 0; w < ways; ++w) {
        if (w != 5 && w != 17 && w != 63)
            expected.push_back(way0 + w);
    }
    expected.push_back(s1a);
    expected.push_back(s1b);
    EXPECT_EQ(seen, expected);

    // The top way comes back first once it is the only free one.
    arr.install(way0[5], addrOf(5));
    arr.install(way0[17], addrOf(17));
    EXPECT_EQ(arr.findFreeWay(0), way0 + ways - 1);
    arr.install(way0[63], addrOf(63));
    EXPECT_EQ(arr.findFreeWay(0), nullptr);
    EXPECT_EQ(arr.find(addrOf(63)), way0 + ways - 1);
}

TEST(CacheArray, PayloadsOfNeighbouringBlocksDoNotAlias)
{
    mem::CacheArray<TestBlock> arr(2 * 4 * 64, 4, 64); // 2 sets, 4 ways
    std::vector<TestBlock *> blocks;
    std::vector<std::array<std::uint8_t, 64>> payloads(8);
    for (Addr a = 0; a < 8 * 64; a += 64) {
        blocks.push_back(fill(arr, a));
        auto &bytes = payloads[blocks.size() - 1];
        for (unsigned i = 0; i < 64; ++i)
            bytes[i] = static_cast<std::uint8_t>(a + i);
        arr.assign(*blocks.back(), bytes.data(), bytes.size());
    }
    // Overwrite both edges of every payload.
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        arr.writeInt(*blocks[i], 0, 8, 0x1000 + i);
        arr.writeInt(*blocks[i], 56, 8, 0x2000 + i);
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        std::uint64_t middle = 0;
        std::memcpy(&middle, payloads[i].data() + 8, 8);
        EXPECT_EQ(arr.readInt(*blocks[i], 0, 8), 0x1000 + i);
        EXPECT_EQ(arr.readInt(*blocks[i], 8, 8), middle);
        EXPECT_EQ(arr.readInt(*blocks[i], 56, 8), 0x2000 + i);
        // Block k's payload sits k block sizes into the arena.
        EXPECT_EQ(arr.data(*blocks[i]) - arr.data(*blocks[0]),
                  (blocks[i] - blocks[0]) * 64);
    }
    arr.assign(*blocks[2], payloads[5].data(), 64);
    EXPECT_TRUE(arr.sameData(*blocks[2], payloads[5].data()));
    EXPECT_FALSE(arr.sameData(*blocks[1], payloads[5].data()));
    EXPECT_FALSE(arr.sameData(*blocks[3], payloads[5].data()));
    EXPECT_EQ(arr.readInt(*blocks[1], 56, 8), 0x2001u);
    EXPECT_EQ(arr.readInt(*blocks[3], 0, 8), 0x1003u);
}

// The block table starts unwritten, so install() must write every
// field: a way reused after an invalidation reads as freshly installed.
TEST(CacheArray, InstallResetsEveryL1BlockField)
{
    mem::CacheArray<mem::L1Block> arr(4 * 64, 4, 64); // one set
    mem::L1Block *b = arr.findFreeWay(0);
    ASSERT_NE(b, nullptr);
    arr.install(*b, 0);
    arr.touch(*b);
    b->state = mem::L1State::M;
    b->dirty = true;
    b->sr_epoch = 3;
    b->sw_epoch = 4;
    arr.invalidate(*b);

    arr.install(*b, 0x1c0);
    EXPECT_EQ(b->block_addr, 0x1c0u);
    EXPECT_EQ(b->use_stamp, 0u);
    EXPECT_EQ(b->state, mem::L1State::I);
    EXPECT_FALSE(b->dirty);
    EXPECT_EQ(b->sr_epoch, 0u);
    EXPECT_EQ(b->sw_epoch, 0u);
}

TEST(CacheArray, InstallResetsEveryL2BlockField)
{
    mem::CacheArray<mem::L2Block> arr(4 * 64, 4, 64); // one set
    mem::L2Block *b = arr.findFreeWay(0);
    ASSERT_NE(b, nullptr);
    arr.install(*b, 0);
    arr.touch(*b);
    b->dirty = true;
    b->owner = 5;
    b->addSharer(2);
    arr.invalidate(*b);

    arr.install(*b, 0x1c0);
    EXPECT_EQ(b->block_addr, 0x1c0u);
    EXPECT_EQ(b->use_stamp, 0u);
    EXPECT_FALSE(b->dirty);
    EXPECT_EQ(b->owner, invalid_core);
    EXPECT_EQ(b->sharers, 0u);
}

TEST(CacheArray, WiderThanTheValidMaskDies)
{
    EXPECT_DEATH(mem::CacheArray<TestBlock>(65 * 64, 65, 64),
                 "64-way limit");
}

// ---------------------------------------------------------------------
// Whole-protocol behaviour
// ---------------------------------------------------------------------

namespace
{

/** Single core stores a value, then loads it back elsewhere. */
isa::Program
storeLoadProgram(Addr *var_out, Addr *out_out)
{
    Assembler as;
    const Addr var = as.word("var", 5);
    const Addr out = as.word("out", 0);
    as.li(a0, var);
    as.ld(t0, a0);
    as.addi(t0, t0, 37);
    as.st(t0, a0);
    as.ld(t1, a0);
    as.li(a1, out);
    as.st(t1, a1);
    as.halt();
    *var_out = var;
    *out_out = out;
    return as.finish();
}

} // namespace

TEST(Protocol, SingleCoreStoreLoad)
{
    Addr var = 0, out = 0;
    isa::Program prog = storeLoadProgram(&var, &out);
    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(var, 8), 42u);
    EXPECT_EQ(sys.debugRead(out, 8), 42u);
    sys.auditCoherence();
}

TEST(Protocol, FirstReadGrantsExclusive)
{
    Addr var = 0, out = 0;
    isa::Program prog = storeLoadProgram(&var, &out);
    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    // The only core wrote the block: it must hold it in M.
    const mem::L1Block *blk = sys.l1(0).findBlock(var);
    ASSERT_NE(blk, nullptr);
    EXPECT_EQ(blk->state, mem::L1State::M);
    EXPECT_TRUE(blk->dirty);
}

TEST(Protocol, EvictionsWriteBack)
{
    // Touch far more blocks than a tiny L1 holds; values must survive.
    Assembler as;
    const std::uint64_t blocks = 512; // >> 4KB L1
    const Addr arr = as.alloc("arr", blocks * 64, 64);
    as.li(a0, arr);
    as.li(s0, blocks);
    as.li(t1, 0);
    as.label("loop");
    as.addi(t1, t1, 3);
    as.st(t1, a0);
    as.addi(a0, a0, 64);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    for (std::uint64_t i = 0; i < blocks; ++i)
        EXPECT_EQ(sys.debugRead(arr + i * 64, 8), (i + 1) * 3);
    EXPECT_GT(sys.l1(0).statGroup().scalarCount("evictions"), 0u);
    sys.auditCoherence();
}

TEST(Protocol, OwnershipMigration)
{
    // Core 0 writes, then sets a flag; core 1 waits and reads.
    Assembler as;
    const Addr var = as.paddedWord("var", 0);
    const Addr flag = as.paddedWord("flag", 0);
    const Addr out = as.paddedWord("out", 0);
    as.li(a0, var);
    as.li(a1, flag);
    as.li(a2, out);
    as.bne(tp, x0, "reader");
    as.li(t0, 123);
    as.st(t0, a0);
    as.fenceRelease();
    as.li(t0, 1);
    as.st(t0, a1);
    as.halt();
    as.label("reader");
    as.ld(t0, a1);
    as.beq(t0, x0, "reader");
    as.fenceAcquire();
    as.ld(t1, a0);
    as.st(t1, a2);
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(2), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(out, 8), 123u);
    // Probes flowed: the directory forwarded at least one request.
    EXPECT_GT(sys.directory().statGroup().scalarCount("fwds_sent") +
              sys.directory().statGroup().scalarCount("invs_sent"), 0u);
    sys.auditCoherence();
}

TEST(Protocol, ContendedAtomicsAreAtomic)
{
    Assembler as;
    const Addr counter = as.paddedWord("counter", 0);
    as.li(a0, counter);
    as.li(s0, 500);
    as.label("loop");
    as.li(t1, 1);
    as.amoadd(t0, t1, a0);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(4), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.debugRead(counter, 8), 2000u);
    sys.auditCoherence();
}

TEST(Protocol, FalseSharingStillCoherent)
{
    // All threads write adjacent words of the same block, repeatedly.
    Assembler as;
    const Addr block = as.alloc("block", 64, 64);
    as.li(a0, block);
    as.slli(t0, tp, 3);
    as.add(a0, a0, t0); // my word
    as.li(s0, 200);
    as.label("loop");
    as.ld(t1, a0);
    as.addi(t1, t1, 1);
    as.st(t1, a0);
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "loop");
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(4), prog);
    ASSERT_TRUE(sys.run());
    for (std::uint32_t t = 0; t < 4; ++t)
        EXPECT_EQ(sys.debugRead(block + t * 8, 8), 200u);
    // The block ping-ponged: invalidation-based ownership transfers.
    EXPECT_GT(sys.directory().statGroup().scalarCount("fwds_sent"), 0u);
    sys.auditCoherence();
}

TEST(Protocol, SmallL2ForcesRecalls)
{
    harness::SystemConfig cfg = testConfig(2);
    // An L1 big enough to keep the whole working set resident over an
    // L2 smaller than it: inclusivity forces the directory to recall
    // L1 copies to make room.
    cfg.l2.size = 8 * 1024;
    cfg.l1.size = 32 * 1024;

    Assembler as;
    const std::uint64_t blocks = 256;
    const Addr arr = as.alloc("arr", blocks * 64, 64);
    const Addr sums = as.alloc("sums", 2 * 64, 64);
    // Both threads sweep the array twice, summing and bumping.
    as.li(s0, 2);
    as.label("sweep");
    as.li(a0, arr);
    as.li(s1, blocks);
    as.li(s2, 0);
    as.label("loop");
    as.ld(t0, a0);
    as.add(s2, s2, t0);
    as.addi(a0, a0, 64);
    as.addi(s1, s1, -1);
    as.bne(s1, x0, "loop");
    as.addi(s0, s0, -1);
    as.bne(s0, x0, "sweep");
    as.li(a1, sums);
    as.slli(t0, tp, 6);
    as.add(a1, a1, t0);
    as.st(s2, a1);
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_GT(sys.directory().statGroup().scalarCount("recalls"), 0u);
    sys.auditCoherence();
}

TEST(Protocol, NetworkCountsTraffic)
{
    Addr var = 0, out = 0;
    isa::Program prog = storeLoadProgram(&var, &out);
    harness::System sys(testConfig(1), prog);
    ASSERT_TRUE(sys.run());
    const auto *net = sys.stats().findGroup("network");
    ASSERT_NE(net, nullptr);
    EXPECT_GT(net->scalarCount("msgs"), 0u);
    EXPECT_GT(net->scalarCount("bytes"), net->scalarCount("msgs") * 8);
}
