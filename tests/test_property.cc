/**
 * @file
 * Property-based tests: randomly generated multithreaded programs whose
 * final memory is interleaving-independent by construction (disjoint
 * per-thread regions + commutative shared atomics).  The timing
 * simulator's final memory must equal the functional reference
 * executor's, for every consistency model and speculation mode, and the
 * coherence invariants must hold afterwards.  The ReplacementOrder
 * tests also pin exact counts of such programs on two small machines,
 * so a change to cache replacement order shows.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "isa/assembler.hh"
#include "isa/interp.hh"
#include "tests/sim_test_util.hh"

using namespace fenceless;
using namespace fenceless::isa;
using namespace fenceless::test;

namespace
{

constexpr std::uint64_t region_words = 64;

struct GeneratedProgram
{
    isa::Program prog;
    Addr regions;       //!< per-thread private regions (shared-visible)
    Addr shared_atomics;//!< commutative AMO counters
    unsigned num_atomics;
};

/**
 * Generate a random program: each thread executes a straight-line
 * sequence of loads/stores in its own region, ALU ops, fences of all
 * kinds, and fetch-add on shared counters.  The final memory image is
 * the same under any interleaving.
 */
GeneratedProgram
generate(std::uint64_t seed, std::uint32_t num_threads,
         unsigned ops_per_thread)
{
    Random rng(seed);
    Assembler as;
    const unsigned num_atomics = 4;
    GeneratedProgram out;
    out.regions = as.alloc("regions",
                           num_threads * region_words * 8, 64);
    out.shared_atomics = as.alloc("atomics", num_atomics * 8, 64);
    out.num_atomics = num_atomics;

    // Dispatch each thread to its own code block.
    for (std::uint32_t t = 0; t < num_threads; ++t) {
        as.li(t0, t);
        as.beq(tp, t0, "thread" + std::to_string(t));
    }
    as.halt();

    for (std::uint32_t t = 0; t < num_threads; ++t) {
        as.label("thread" + std::to_string(t));
        as.li(a0, out.regions + t * region_words * 8);
        as.li(a1, out.shared_atomics);
        // Working registers s0..s3 hold evolving values.
        for (RegId r : {s0, s1, s2, s3})
            as.li(r, rng.next() & 0xffff);

        for (unsigned op = 0; op < ops_per_thread; ++op) {
            const RegId dst =
                static_cast<RegId>(s0 + rng.range(0, 3));
            const RegId src =
                static_cast<RegId>(s0 + rng.range(0, 3));
            const auto off = static_cast<std::int64_t>(
                rng.range(0, region_words - 1) * 8);
            switch (rng.range(0, 9)) {
              case 0:
              case 1:
              case 2:
                as.st(src, a0, off);
                break;
              case 3:
              case 4:
                as.ld(dst, a0, off);
                break;
              case 5:
                as.add(dst, dst, src);
                break;
              case 6:
                as.xor_(dst, dst, src);
                break;
              case 7: {
                const auto kind = rng.range(0, 2);
                as.fence(kind == 0 ? FenceKind::Full
                         : kind == 1 ? FenceKind::Acquire
                                     : FenceKind::Release);
                break;
              }
              case 8: {
                // Commutative shared update with a constant delta.
                const auto idx = static_cast<std::int64_t>(
                    rng.range(0, num_atomics - 1) * 8);
                as.li(t1, rng.range(1, 7));
                as.addi(t2, a1, idx);
                as.amoadd(t3, t1, t2);
                break;
              }
              case 9: {
                // Sub-word store of a deterministic value.
                const unsigned size = 1u << rng.range(0, 2);
                const auto aligned =
                    off & ~static_cast<std::int64_t>(size - 1);
                as.st(src, a0, aligned,
                      static_cast<std::uint8_t>(size));
                break;
              }
            }
        }
        as.halt();
    }

    out.prog = as.finish();
    return out;
}

void
compareAgainstReference(const GeneratedProgram &gen,
                        harness::SystemConfig cfg)
{
    ReferenceExecutor ref(gen.prog, cfg.num_cores);
    ASSERT_TRUE(ref.run());

    harness::System sys(cfg, gen.prog);
    ASSERT_TRUE(sys.run());
    sys.auditCoherence();

    for (std::uint32_t t = 0; t < cfg.num_cores; ++t) {
        for (std::uint64_t w = 0; w < region_words; ++w) {
            const Addr a = gen.regions + (t * region_words + w) * 8;
            ASSERT_EQ(sys.debugRead(a, 8), ref.memory().read64(a))
                << "thread " << t << " word " << w;
        }
    }
    for (unsigned i = 0; i < gen.num_atomics; ++i) {
        const Addr a = gen.shared_atomics + i * 8;
        ASSERT_EQ(sys.debugRead(a, 8), ref.memory().read64(a))
            << "atomic " << i;
    }
}

/**
 * The geometry that once exposed a probe-handler/rollback reentrancy
 * race: a direct-mapped L1 so small that overflow-fill retries
 * constantly evict blocks while probes are in flight.  The seed picks
 * the speculation mode and the overflow policy.
 */
harness::SystemConfig
directMappedSpecMachine(std::uint64_t seed)
{
    harness::SystemConfig cfg = testConfig(4, cpu::ConsistencyModel::SC);
    cfg.l1.size = 512;
    cfg.l1.assoc = 1;
    cfg.l2.size = 16 * 1024;
    cfg.spec.mode = (seed % 2) ? spec::SpecMode::Continuous
                               : spec::SpecMode::OnDemand;
    cfg.spec.overflow = (seed % 3) ? spec::OverflowPolicy::Stall
                                   : spec::OverflowPolicy::Rollback;
    return cfg;
}

struct PropertyParam
{
    std::uint64_t seed;
    cpu::ConsistencyModel model;
    spec::SpecMode mode;
};

std::string
propertyName(const testing::TestParamInfo<PropertyParam> &info)
{
    std::string s = "seed" + std::to_string(info.param.seed);
    s += "_";
    s += consistencyModelName(info.param.model);
    s += "_";
    s += spec::specModeName(info.param.mode);
    for (auto &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

class RandomPrograms : public testing::TestWithParam<PropertyParam>
{
};

} // namespace

TEST_P(RandomPrograms, TimingMatchesReference)
{
    const auto &p = GetParam();
    GeneratedProgram gen = generate(p.seed, 4, 250);
    harness::SystemConfig cfg = testConfig(4, p.model);
    cfg.spec.mode = p.mode;
    compareAgainstReference(gen, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomPrograms,
    testing::Values(
        PropertyParam{1, cpu::ConsistencyModel::SC, spec::SpecMode::Off},
        PropertyParam{1, cpu::ConsistencyModel::TSO,
                      spec::SpecMode::Off},
        PropertyParam{1, cpu::ConsistencyModel::RMO,
                      spec::SpecMode::Off},
        PropertyParam{1, cpu::ConsistencyModel::SC,
                      spec::SpecMode::OnDemand},
        PropertyParam{2, cpu::ConsistencyModel::TSO,
                      spec::SpecMode::OnDemand},
        PropertyParam{2, cpu::ConsistencyModel::RMO,
                      spec::SpecMode::OnDemand},
        PropertyParam{3, cpu::ConsistencyModel::SC,
                      spec::SpecMode::Continuous},
        PropertyParam{3, cpu::ConsistencyModel::TSO,
                      spec::SpecMode::Continuous},
        PropertyParam{4, cpu::ConsistencyModel::SC,
                      spec::SpecMode::OnDemand},
        PropertyParam{5, cpu::ConsistencyModel::TSO,
                      spec::SpecMode::Continuous},
        PropertyParam{6, cpu::ConsistencyModel::RMO,
                      spec::SpecMode::Continuous},
        PropertyParam{7, cpu::ConsistencyModel::SC,
                      spec::SpecMode::Off}),
    propertyName);

TEST(RandomProgramsStress, TinyCachesManySeeds)
{
    // Small caches force evictions, recalls and speculation overflow.
    for (std::uint64_t seed = 10; seed < 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        GeneratedProgram gen = generate(seed, 4, 150);
        harness::SystemConfig cfg =
            testConfig(4, cpu::ConsistencyModel::SC);
        cfg.l1.size = 1024;
        cfg.l1.assoc = 2;
        cfg.l2.size = 16 * 1024;
        cfg.spec.mode = spec::SpecMode::OnDemand;
        compareAgainstReference(gen, cfg);
    }
}

TEST(RandomProgramsStress, DirectMappedWithSpeculation)
{
    for (std::uint64_t seed = 20; seed < 26; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        compareAgainstReference(generate(seed, 4, 200),
                                directMappedSpecMachine(seed));
    }
}

// ---------------------------------------------------------------------
// Replacement order, pinned
// ---------------------------------------------------------------------

TEST(ReplacementOrder, FullL2SetRandomProgramsCountsExact)
{
    // BankedProtocol.FullL2SetParksMissesUntilAWayFrees's machine under
    // sixteen generated programs: nearly every miss recalls an L2
    // victim that LRU picks from two candidates, so any change to
    // victim choice moves these counts.
    struct Row
    {
        std::uint64_t seed;
        test::ReplacementCounts want;
    };
    const Row rows[] = {
        {40, {.cycles = 9663, .insts = 4162,
              .banks = {{695, 711, 695}, {681, 697, 680}}}},
        {41, {.cycles = 11646, .insts = 4270,
              .banks = {{612, 628, 612}, {634, 650, 634}}}},
        {42, {.cycles = 10019, .insts = 4186,
              .banks = {{677, 693, 676}, {692, 708, 691}}}},
        {43, {.cycles = 11408, .insts = 4258,
              .banks = {{642, 658, 641}, {547, 563, 547}}}},
    };
    for (const Row &r : rows) {
        SCOPED_TRACE("seed " + std::to_string(r.seed));
        GeneratedProgram gen = generate(r.seed, 16, 200);
        harness::SystemConfig cfg = test::fullL2SetMachine();
        cfg.spec.mode = (r.seed % 2) ? spec::SpecMode::Continuous
                                     : spec::SpecMode::OnDemand;
        harness::System sys(cfg, gen.prog);
        ASSERT_TRUE(sys.run());
        sys.auditCoherence();
        EXPECT_EQ(test::replacementCounts(sys), r.want);
    }
}

TEST(ReplacementOrder, DirectMappedSpeculationCountsExact)
{
    // DirectMappedWithSpeculation's machine and programs, plus two
    // longer programs that park fills on a set full of speculatively
    // tagged blocks.  The 16 KiB L2 never evicts here.
    struct Row
    {
        std::uint64_t seed;
        unsigned ops;
        test::ReplacementCounts want;
    };
    const Row rows[] = {
        {20, 200, {.cycles = 2004, .insts = 1026, .banks = {{0, 33, 0}},
                   .evictions = 34}},
        {21, 200, {.cycles = 1994, .insts = 1006, .banks = {{0, 33, 0}},
                   .evictions = 38}},
        {22, 200, {.cycles = 2108, .insts = 1040, .banks = {{0, 33, 0}},
                   .evictions = 32}},
        {23, 200, {.cycles = 1939, .insts = 996, .banks = {{0, 33, 0}},
                   .evictions = 41}},
        {24, 200, {.cycles = 1622, .insts = 982, .banks = {{0, 33, 0}},
                   .evictions = 41}},
        {25, 200, {.cycles = 2032, .insts = 1010, .banks = {{0, 33, 0}},
                   .evictions = 37, .overflow_waits = 1,
                   .fill_retries = 1}},
        {52, 400, {.cycles = 3550, .insts = 1970, .banks = {{0, 33, 0}},
                   .evictions = 70, .overflow_waits = 2,
                   .fill_retries = 2}},
        {113, 400, {.cycles = 4172, .insts = 1986, .banks = {{0, 33, 0}},
                    .evictions = 76, .overflow_waits = 2,
                    .fill_retries = 2}},
    };
    for (const Row &r : rows) {
        SCOPED_TRACE("seed " + std::to_string(r.seed));
        GeneratedProgram gen = generate(r.seed, 4, r.ops);
        harness::System sys(directMappedSpecMachine(r.seed), gen.prog);
        ASSERT_TRUE(sys.run());
        sys.auditCoherence();
        EXPECT_EQ(test::replacementCounts(sys), r.want);
    }
}

TEST(RandomProgramsStress, ManyCoresSharedAtomics)
{
    for (std::uint64_t seed = 30; seed < 34; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        GeneratedProgram gen = generate(seed, 8, 120);
        harness::SystemConfig cfg =
            testConfig(8, cpu::ConsistencyModel::TSO);
        cfg.spec.mode = spec::SpecMode::OnDemand;
        compareAgainstReference(gen, cfg);
    }
}
