/**
 * @file
 * Allocation tests.  Building a machine allocates per component, not
 * per statistic or cache block.  System::run() allocates only while
 * its pools, buckets and buffers grow to their working size, so a run
 * four times longer makes almost no more heap allocations.  This is
 * its own executable because it replaces the global operator new to
 * count calls.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "harness/system.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"

namespace
{

std::uint64_t allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Memory resources (the stat registry's arena among them) allocate
// through the aligned form.
void *
operator new(std::size_t size, std::align_val_t align)
{
    ++allocations;
    // aligned_alloc takes a non-zero multiple of the alignment.
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace fenceless;

namespace
{

/** operator new calls inside one run() of @p sections lock sections. */
std::uint64_t
runAllocations(std::uint64_t sections)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 16;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withDirBanks(4).withTopology(mem::Topology::Mesh);
    workload::LocalLockStream::Params p;
    p.iters = sections;
    workload::LocalLockStream wl(p);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);

    const std::uint64_t before = allocations;
    EXPECT_TRUE(sys.run());
    const std::uint64_t during = allocations - before;

    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error)) << error;
    return during;
}

} // namespace

TEST(Alloc, RunIsAllocationFreeInSteadyState)
{
    const std::uint64_t short_run = runAllocations(16);
    const std::uint64_t long_run = runAllocations(64);
    // Four times the simulated work may only finish growing capacity.
    EXPECT_LT(long_run, short_run + 32)
        << "16 sections: " << short_run << " allocations, 64 sections: "
        << long_run;
}

TEST(Alloc, BuildingAMachineAllocatesPerComponent)
{
    // perfbench's mesh64_shared machine, shipped defaults otherwise.
    harness::SystemConfig cfg;
    cfg.num_cores = 64;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withDirBanks(8).withTopology(mem::Topology::Mesh).withSpeculation();
    workload::IrregularUpdate wl;
    const isa::Program prog = wl.build(cfg.num_cores);

    const std::uint64_t before = allocations;
    const harness::System sys(cfg, prog);
    const std::uint64_t built = allocations - before;
    std::printf("building the 64-core mesh machine: %llu operator new "
                "calls\n",
                static_cast<unsigned long long>(built));
    // About 1,500: a few per component.  Its ~4,000 stats add only the
    // stat arena's chunks; one allocation per stat would add thousands.
    EXPECT_LE(built, 1600u);
}
