/**
 * @file
 * Steady-state allocation test: System::run() allocates only while its
 * pools, buckets and buffers grow to their working size, so a run four
 * times longer makes almost no more heap allocations.  This is its own
 * executable because it replaces the global operator new to count
 * calls.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "harness/system.hh"
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

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

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
