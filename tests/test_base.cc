/**
 * @file
 * Unit tests for the base utilities: bitfield helpers, the PRNG, the
 * flat memory, and the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/bitfield.hh"
#include "base/flat_memory.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/stats_json.hh"

using namespace fenceless;


TEST(Bitfield, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(96));
}

TEST(Bitfield, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(1ULL << 40), 40u);
}

TEST(Bitfield, Mask)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(8), 0xffu);
    EXPECT_EQ(mask(64), ~std::uint64_t{0});
}

TEST(Bitfield, Bits)
{
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(bits(0xff, 3, 0), 0xfu);
    EXPECT_EQ(bits(0x80, 7, 7), 1u);
}

TEST(Bitfield, Align)
{
    EXPECT_EQ(alignDown(0x12345, 64), 0x12340u);
    EXPECT_EQ(alignUp(0x12345, 64), 0x12380u);
    EXPECT_EQ(alignUp(0x12340, 64), 0x12340u);
    EXPECT_EQ(alignDown(63, 64), 0u);
}

TEST(Bitfield, SignExtend)
{
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(5, 64), 5);
}

TEST(Random, Deterministic)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, SeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Random, RangeBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Random, RealUnitInterval)
{
    Random r(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(FlatMemory, ZeroInitialised)
{
    FlatMemory mem;
    EXPECT_EQ(mem.readInt(0x1234, 8), 0u);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(FlatMemory, ReadBackWrites)
{
    FlatMemory mem;
    mem.writeInt(0x1000, 8, 0xdeadbeefcafe1234ULL);
    EXPECT_EQ(mem.readInt(0x1000, 8), 0xdeadbeefcafe1234ULL);
    EXPECT_EQ(mem.readInt(0x1000, 4), 0xcafe1234ULL);
    EXPECT_EQ(mem.readInt(0x1000, 1), 0x34u);
}

TEST(FlatMemory, CrossPageAccess)
{
    FlatMemory mem;
    const Addr addr = FlatMemory::page_size - 3;
    std::uint8_t out[8] = {};
    const std::uint8_t in[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    mem.write(addr, in, 8);
    mem.read(addr, out, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], in[i]);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(Stats, ScalarOps)
{
    statistics::StatGroup group("g");
    auto &s = group.addScalar("count", "a counter");
    ++s;
    s += 5;
    EXPECT_EQ(s.count(), 6u);
    s.maxOf(3);
    EXPECT_EQ(s.count(), 6u);
    s.maxOf(10);
    EXPECT_EQ(s.count(), 10u);
}

TEST(Stats, DistributionMoments)
{
    statistics::StatGroup group("g");
    auto &d = group.addDistribution("d", "values");
    d.sample(1);
    d.sample(2);
    d.sample(3);
    EXPECT_EQ(d.samples(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 3.0);
    EXPECT_NEAR(d.stdev(), 0.8165, 1e-3);
}

TEST(Stats, FormulaDerivesFromScalars)
{
    statistics::StatGroup group("g");
    auto &num = group.addScalar("num", "numerator");
    auto &den = group.addScalar("den", "denominator");
    auto &ipc = group.addFormula("ratio", "num/den", [&] {
        return den.count() ? num.value() / den.value() : 0.0;
    });
    num += 10;
    den += 4;
    EXPECT_DOUBLE_EQ(ipc.value(), 2.5);
}

TEST(Stats, GroupLookup)
{
    statistics::StatGroup group("core0");
    group.addScalar("loads", "loads");
    EXPECT_NE(group.find("loads"), nullptr);
    EXPECT_EQ(group.find("stores"), nullptr);
    EXPECT_EQ(group.find("loads")->name(), "loads");
    EXPECT_EQ(group.qualifiedName(*group.find("loads")), "core0.loads");
}

TEST(Stats, RegistryPrint)
{
    statistics::StatRegistry reg;
    auto &g = reg.createGroup("x");
    auto &s = g.addScalar("v", "value");
    s += 7;
    std::ostringstream os;
    statistics::printJson(os, reg);
    EXPECT_NE(os.str().find("\"x.v\": {\"kind\": \"scalar\", \"value\": 7}"),
              std::string::npos);
}
