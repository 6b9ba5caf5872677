/**
 * @file
 * Every workload runs to completion with correct postconditions under a
 * matrix of consistency models x speculation modes x core counts, with
 * a coherence audit after each run.  Parameterised gtest sweeps keep
 * the matrix explicit.
 */

#include <gtest/gtest.h>

#include "tests/sim_test_util.hh"
#include "workload/workload.hh"

using namespace fenceless;
using namespace fenceless::test;

namespace
{

struct MatrixParam
{
    cpu::ConsistencyModel model;
    spec::SpecMode mode;
    std::uint32_t cores;
};

std::string
paramName(const testing::TestParamInfo<MatrixParam> &info)
{
    std::string s = consistencyModelName(info.param.model);
    s += "_";
    s += spec::specModeName(info.param.mode);
    s += "_";
    s += std::to_string(info.param.cores) + "c";
    for (auto &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

class WorkloadMatrix : public testing::TestWithParam<MatrixParam>
{
  protected:
    harness::SystemConfig
    config() const
    {
        harness::SystemConfig cfg =
            testConfig(GetParam().cores, GetParam().model);
        cfg.spec.mode = GetParam().mode;
        return cfg;
    }
};

} // namespace

TEST_P(WorkloadMatrix, WholeSuitePostconditionsHold)
{
    for (auto &wl : workload::standardSuite(1)) {
        if (GetParam().cores < wl->minThreads())
            continue;
        SCOPED_TRACE(wl->name());
        runAndAudit(*wl, config());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Models, WorkloadMatrix,
    testing::Values(
        MatrixParam{cpu::ConsistencyModel::SC, spec::SpecMode::Off, 4},
        MatrixParam{cpu::ConsistencyModel::TSO, spec::SpecMode::Off, 4},
        MatrixParam{cpu::ConsistencyModel::RMO, spec::SpecMode::Off, 4},
        MatrixParam{cpu::ConsistencyModel::SC, spec::SpecMode::OnDemand,
                    4},
        MatrixParam{cpu::ConsistencyModel::TSO,
                    spec::SpecMode::OnDemand, 4},
        MatrixParam{cpu::ConsistencyModel::RMO,
                    spec::SpecMode::OnDemand, 4},
        MatrixParam{cpu::ConsistencyModel::SC,
                    spec::SpecMode::Continuous, 4},
        MatrixParam{cpu::ConsistencyModel::TSO,
                    spec::SpecMode::Continuous, 4},
        MatrixParam{cpu::ConsistencyModel::SC, spec::SpecMode::OnDemand,
                    2},
        MatrixParam{cpu::ConsistencyModel::TSO,
                    spec::SpecMode::OnDemand, 8},
        MatrixParam{cpu::ConsistencyModel::RMO, spec::SpecMode::Off, 1},
        MatrixParam{cpu::ConsistencyModel::SC, spec::SpecMode::OnDemand,
                    1}),
    paramName);
