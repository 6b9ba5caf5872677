/**
 * @file
 * Parameter sweeps over workloads and machine configuration: every
 * combination must terminate with correct postconditions and pass the
 * coherence audit.  These are property-style correctness sweeps driven
 * through TEST_P; the shapes themselves are measured by the bench
 * binaries.
 */

#include <gtest/gtest.h>

#include "tests/sim_test_util.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::test;

// ---------------------------------------------------------------------
// Cache geometry sweep: the whole suite on varied cache shapes.
// ---------------------------------------------------------------------

namespace
{

struct GeomParam
{
    std::uint64_t l1_size;
    unsigned l1_assoc;
    std::uint64_t l2_size;
    unsigned sb_size;
};

std::string
geomName(const testing::TestParamInfo<GeomParam> &info)
{
    return "l1_" + std::to_string(info.param.l1_size) + "x"
           + std::to_string(info.param.l1_assoc) + "_l2_"
           + std::to_string(info.param.l2_size / 1024) + "k_sb"
           + std::to_string(info.param.sb_size);
}

class CacheGeometry : public testing::TestWithParam<GeomParam>
{
};

} // namespace

TEST_P(CacheGeometry, SuiteCorrectAcrossGeometries)
{
    harness::SystemConfig cfg = testConfig(4,
                                           cpu::ConsistencyModel::SC);
    cfg.l1.size = GetParam().l1_size;
    cfg.l1.assoc = GetParam().l1_assoc;
    cfg.l2.size = GetParam().l2_size;
    cfg.sb_size = GetParam().sb_size;
    cfg.spec.mode = spec::SpecMode::OnDemand;
    for (auto &wl : workload::standardSuite(1)) {
        if (cfg.num_cores < wl->minThreads())
            continue;
        SCOPED_TRACE(wl->name());
        runAndAudit(*wl, cfg);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    testing::Values(GeomParam{512, 1, 16 * 1024, 4},
                    GeomParam{1024, 2, 32 * 1024, 2},
                    GeomParam{2048, 4, 64 * 1024, 8},
                    GeomParam{8192, 8, 256 * 1024, 16},
                    GeomParam{4096, 4, 8 * 1024, 16}),
    geomName);

// ---------------------------------------------------------------------
// Workload-parameter sweeps.
// ---------------------------------------------------------------------

namespace
{

class SpinlockParams
    : public testing::TestWithParam<std::tuple<int, int, int>>
{
};

} // namespace

TEST_P(SpinlockParams, CounterExactUnderAllSettings)
{
    workload::SpinlockCrit::Params p;
    p.iters = static_cast<std::uint64_t>(std::get<0>(GetParam()));
    p.crit_work = static_cast<std::uint64_t>(std::get<1>(GetParam()));
    p.counters = static_cast<unsigned>(std::get<2>(GetParam()));
    workload::SpinlockCrit wl(p);
    harness::SystemConfig cfg = testConfig(4);
    cfg.spec.mode = spec::SpecMode::OnDemand;
    runAndAudit(wl, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpinlockParams,
    testing::Combine(testing::Values(10, 80),     // iters
                     testing::Values(0, 16),      // crit work
                     testing::Values(1, 3)));     // counters in CS

namespace
{

class ProdConsParams
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

} // namespace

TEST_P(ProdConsParams, EveryItemDeliveredOnce)
{
    workload::ProdCons::Params p;
    p.items = static_cast<std::uint64_t>(std::get<0>(GetParam()));
    p.capacity = static_cast<std::uint64_t>(std::get<1>(GetParam()));
    workload::ProdCons wl(p);
    for (auto model : {cpu::ConsistencyModel::TSO,
                       cpu::ConsistencyModel::RMO}) {
        SCOPED_TRACE(consistencyModelName(model));
        harness::SystemConfig cfg = testConfig(4, model);
        cfg.spec.mode = spec::SpecMode::OnDemand;
        runAndAudit(wl, cfg);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProdConsParams,
                         testing::Combine(testing::Values(32, 200),
                                          testing::Values(2, 8, 64)));

namespace
{

class StencilParams
    : public testing::TestWithParam<std::tuple<int, int, int>>
{
};

} // namespace

TEST_P(StencilParams, MatchesHostModel)
{
    workload::Stencil2D::Params p;
    p.n = static_cast<std::uint64_t>(std::get<0>(GetParam()));
    p.iters = static_cast<std::uint64_t>(std::get<1>(GetParam()));
    workload::Stencil2D wl(p);
    const auto cores =
        static_cast<std::uint32_t>(std::get<2>(GetParam()));
    harness::SystemConfig cfg = testConfig(cores,
                                           cpu::ConsistencyModel::RMO);
    cfg.spec.mode = spec::SpecMode::OnDemand;
    runAndAudit(wl, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StencilParams,
    testing::Combine(testing::Values(4, 9, 16), // grid (incl. odd)
                     testing::Values(1, 5),     // sweeps
                     testing::Values(1, 3, 8)));// cores (incl. odd)

namespace
{

class RadixParams : public testing::TestWithParam<std::tuple<int, int>>
{
};

} // namespace

TEST_P(RadixParams, PartitionCorrect)
{
    workload::RadixPartition::Params p;
    p.items_per_thread =
        static_cast<std::uint64_t>(std::get<0>(GetParam()));
    p.buckets = static_cast<unsigned>(std::get<1>(GetParam()));
    workload::RadixPartition wl(p);
    harness::SystemConfig cfg = testConfig(4,
                                           cpu::ConsistencyModel::SC);
    cfg.spec.mode = spec::SpecMode::Continuous;
    runAndAudit(wl, cfg);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RadixParams,
                         testing::Combine(testing::Values(16, 100),
                                          testing::Values(2, 8, 64)));

// ---------------------------------------------------------------------
// Speculation-parameter sweep on one conflict-prone workload.
// ---------------------------------------------------------------------

namespace
{

struct SpecParam
{
    spec::SpecMode mode;
    spec::Granularity granularity;
    spec::OverflowPolicy overflow;
    unsigned ps_queue;
    Cycles commit_arb;
};

std::string
specName(const testing::TestParamInfo<SpecParam> &info)
{
    std::string s = spec::specModeName(info.param.mode);
    s += "_";
    s += spec::granularityName(info.param.granularity);
    s += "_";
    s += spec::overflowPolicyName(info.param.overflow);
    s += "_q" + std::to_string(info.param.ps_queue);
    s += "_arb" + std::to_string(info.param.commit_arb);
    for (auto &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

class SpecKnobs : public testing::TestWithParam<SpecParam>
{
};

} // namespace

TEST_P(SpecKnobs, IrregularUpdateStaysCorrect)
{
    workload::IrregularUpdate::Params p;
    p.updates = 200;
    p.bins = 8; // contended
    workload::IrregularUpdate wl(p);

    harness::SystemConfig cfg = testConfig(4,
                                           cpu::ConsistencyModel::SC);
    cfg.l1.size = 2048; // small: overflow pressure
    cfg.l1.assoc = 2;
    cfg.spec.mode = GetParam().mode;
    cfg.spec.granularity = GetParam().granularity;
    cfg.spec.overflow = GetParam().overflow;
    cfg.spec.ps_store_queue = GetParam().ps_queue;
    cfg.spec.ps_load_cam = GetParam().ps_queue * 2;
    cfg.spec.commit_arb_latency = GetParam().commit_arb;
    runAndAudit(wl, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpecKnobs,
    testing::Values(
        SpecParam{spec::SpecMode::OnDemand, spec::Granularity::Block,
                  spec::OverflowPolicy::Stall, 16, 0},
        SpecParam{spec::SpecMode::OnDemand, spec::Granularity::Block,
                  spec::OverflowPolicy::Rollback, 16, 0},
        SpecParam{spec::SpecMode::OnDemand,
                  spec::Granularity::PerStore,
                  spec::OverflowPolicy::Stall, 2, 0},
        SpecParam{spec::SpecMode::OnDemand,
                  spec::Granularity::PerStore,
                  spec::OverflowPolicy::Rollback, 4, 0},
        SpecParam{spec::SpecMode::Continuous, spec::Granularity::Block,
                  spec::OverflowPolicy::Stall, 16, 0},
        SpecParam{spec::SpecMode::Continuous, spec::Granularity::Block,
                  spec::OverflowPolicy::Rollback, 16, 25},
        SpecParam{spec::SpecMode::Continuous,
                  spec::Granularity::PerStore,
                  spec::OverflowPolicy::Stall, 2, 10},
        // Without arbitration a full budget commits inside the access
        // and chains the next epoch at once.
        SpecParam{spec::SpecMode::Continuous,
                  spec::Granularity::PerStore,
                  spec::OverflowPolicy::Stall, 2, 0},
        SpecParam{spec::SpecMode::OnDemand, spec::Granularity::Block,
                  spec::OverflowPolicy::Stall, 16, 100}),
    specName);
