/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every source of randomness in the simulator (workload data, random
 * replacement, stress testers) draws from an explicitly seeded Random
 * instance so that whole-system runs are reproducible bit for bit.
 * The generator is splitmix64-seeded xoshiro256**.
 */

#pragma once

#include <cstdint>

#include "base/logging.hh"

namespace fenceless
{

/** A small, fast, seedable PRNG (xoshiro256**). */
class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        this->seed(seed);
    }

    /** Re-seed the generator (splitmix64 expansion of @p s). */
    void
    seed(std::uint64_t s)
    {
        for (auto &word : state_) {
            s += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = s;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** @return a uniform integer in [lo, hi] (inclusive). */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        flAssert(lo <= hi, "Random::range with lo > hi");
        const std::uint64_t span = hi - lo + 1;
        if (span == 0)
            return next(); // full 64-bit range
        return lo + next() % span;
    }

    /** @return a uniform double in [0, 1). */
    double
    real()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace fenceless
