/**
 * @file
 * Dedicated tests for the statistics package: Formula evaluation,
 * registry-wide reset, JSON rendering of every stat kind, percentile
 * sketch accuracy, and a numerical regression for the Welford stdev
 * (large mean, small variance).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "base/stats.hh"
#include "base/stats_json.hh"

using namespace fenceless;
using namespace fenceless::statistics;

TEST(Formula, EvaluatesLazilyFromOtherStats)
{
    StatRegistry reg;
    StatGroup &g = reg.createGroup("core");
    Scalar &insts = g.addScalar("insts", "instructions");
    Scalar &cycles = g.addScalar("cycles", "cycles");
    Formula &ipc = g.addFormula("ipc", "IPC", [&] {
        return cycles.count()
                   ? insts.value() / cycles.value()
                   : 0.0;
    });

    EXPECT_EQ(ipc.value(), 0.0);
    insts += 300;
    cycles += 100;
    EXPECT_DOUBLE_EQ(ipc.value(), 3.0);
    // Lazily re-evaluated: later bumps are visible without resampling.
    cycles += 200;
    EXPECT_DOUBLE_EQ(ipc.value(), 1.0);
}

TEST(Formula, EmptyFunctionIsZero)
{
    Formula f("f", "no fn", nullptr);
    EXPECT_EQ(f.value(), 0.0);
}

TEST(Distribution, WelfordLargeMeanSmallVariance)
{
    // The naive sqsum/n - mean^2 form loses every significant digit
    // here (and can go negative); Welford keeps full precision.
    Distribution d("d", "large mean");
    const double base = 1e9;
    d.sample(base + 1);
    d.sample(base + 2);
    d.sample(base + 3);
    EXPECT_DOUBLE_EQ(d.mean(), base + 2);
    // Population stdev of {1,2,3} = sqrt(2/3).
    EXPECT_NEAR(d.stdev(), std::sqrt(2.0 / 3.0), 1e-9);
}

TEST(StatsJson, EveryKindRendersItsFullState)
{
    StatRegistry reg;
    StatGroup &g = reg.createGroup("comp");
    Scalar &s = g.addScalar("hits", "hits");
    Distribution &d = g.addDistribution("lat", "latency");
    g.addFormula("ratio", "derived", [&] { return s.value() / 2; });

    s += 8;
    d.sample(10);
    d.sample(20);

    std::ostringstream os;
    printJson(os, reg);
    const std::string json = os.str();

    // Structurally balanced...
    long depth = 0;
    for (char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    // ...and each kind carries its complete state.
    EXPECT_NE(json.find("\"groups\""), std::string::npos);
    EXPECT_NE(json.find("\"comp.hits\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"scalar\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"distribution\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"formula\""), std::string::npos);
    EXPECT_NE(json.find("\"mean\""), std::string::npos);
    EXPECT_NE(json.find("\"stdev\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST(PercentileSketch, ExactForSmallValues)
{
    // Values below 2^(sub_bits + 1) get one bucket each, so small
    // integer latencies (the common cache-hit case) report exactly.
    PercentileSketch s;
    for (int v = 1; v <= 7; ++v)
        s.add(v);
    EXPECT_EQ(s.samples(), 7u);
    // Nearest-rank: k = ceil(q * 7).
    EXPECT_DOUBLE_EQ(s.quantile(0.50), 4.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.99), 7.0);
}

TEST(PercentileSketch, EmptyAndNonPositiveSamples)
{
    PercentileSketch s;
    EXPECT_EQ(s.quantile(0.5), 0.0);
    s.add(-3.0);
    s.add(0.0);
    EXPECT_EQ(s.samples(), 2u);
    EXPECT_DOUBLE_EQ(s.quantile(0.99), 0.0);
}

TEST(PercentileSketch, BoundedRelativeError)
{
    // 8 sub-buckets per octave bound the half-width error at ~6.25%
    // of the value; allow 10% for the rank landing inside a bucket.
    PercentileSketch s;
    for (int v = 1; v <= 10000; ++v)
        s.add(v);
    for (double q : {0.50, 0.90, 0.95, 0.99}) {
        const double exact = std::ceil(q * 10000.0);
        EXPECT_NEAR(s.quantile(q), exact, 0.10 * exact) << "q=" << q;
    }
}

TEST(PercentileSketch, DeepTailKeepsTheSameErrorBound)
{
    // The ~6% bound is a property of the bucket geometry, not of the
    // quantile, so p99.9 (exposed for tail-latency work) needed no
    // extra sub-bucketing: a deep-tail estimate lands within one
    // bucket of the exact sample just like the median does, even on a
    // heavy-tailed population where the p99.9 sits far from the bulk.
    PercentileSketch uniform;
    for (int v = 1; v <= 100000; ++v)
        uniform.add(v);
    EXPECT_NEAR(uniform.quantile(0.999), 99900.0, 0.10 * 99900.0);

    PercentileSketch skewed;
    for (int v = 0; v < 9989; ++v)
        skewed.add(100.0); // the bulk
    for (int v = 0; v < 11; ++v)
        skewed.add(50000.0 + 1000.0 * v); // the tail
    // Exact p99.9 of 10000 samples is the 9990th smallest -- the
    // first tail sample (50000); the estimate must resolve the tail,
    // not report the bulk.
    EXPECT_NEAR(skewed.quantile(0.999), 50000.0, 0.10 * 50000.0);
    EXPECT_NEAR(skewed.quantile(0.50), 100.0, 0.0625 * 100.0);
}

TEST(Distribution, PercentilesTrackSamples)
{
    Distribution d("d", "latencies");
    for (int v = 1; v <= 100; ++v)
        d.sample(v);
    EXPECT_NEAR(d.percentile(0.50), 50.0, 5.0);
    EXPECT_NEAR(d.percentile(0.95), 95.0, 10.0);
    EXPECT_NEAR(d.percentile(0.99), 99.0, 10.0);
}

TEST(StatsJson, QuoteEscapesSpecials)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(jsonQuote("a\nb"), "\"a\\nb\"");
}
