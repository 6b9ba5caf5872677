/**
 * @file
 * Cross-run comparison: differential waste attribution between two
 * profiles, stat-level deltas between two stats runs, per-run summary
 * metrics, and scaling analysis over a swept axis.
 *
 * Waste deltas are computed on the profiler's raw integer cycle
 * counters, never on derived floats.  The whole-run per-bucket totals
 * come from prof::Profile::bucketTotals(), the function each run's own
 * `--waste-report` prints them with, so the two agree to the exact
 * count -- the property CI's report-smoke job asserts.
 *
 * Every ranking here is deterministic: value ordering with the symbol
 * string as tiebreak, operating on sorted maps, so two invocations
 * over identical inputs produce byte-identical reports.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/loader.hh"

namespace fenceless::analysis
{

/** Whole-run cycles one waste bucket charged in each run. */
struct BucketDelta
{
    std::string bucket;
    std::uint64_t base = 0;
    std::uint64_t cand = 0;

    std::int64_t
    delta() const
    {
        return static_cast<std::int64_t>(cand) -
               static_cast<std::int64_t>(base);
    }
};

/** One symbol's cycle movement between two profiles. */
struct PcDelta
{
    std::string sym;
    std::uint64_t base_wasted = 0;
    std::uint64_t cand_wasted = 0;
    bool only_base = false; //!< symbol vanished in the candidate
    bool only_cand = false; //!< symbol is new in the candidate

    std::int64_t
    delta() const
    {
        return static_cast<std::int64_t>(cand_wasted) -
               static_cast<std::int64_t>(base_wasted);
    }
};

/** One "sym;bucket base cand" row of the folded flamegraph diff. */
struct FoldedDiffRow
{
    std::string stack;
    std::uint64_t base = 0;
    std::uint64_t cand = 0;
};

struct ProfileDiff
{
    std::vector<BucketDelta> buckets;  //!< taxonomy order
    std::vector<PcDelta> regressed;    //!< delta > 0, worst first
    std::vector<PcDelta> improved;     //!< delta < 0, best first
    std::vector<FoldedDiffRow> folded; //!< every stack, sorted
};

ProfileDiff diffProfiles(const prof::Profile &base,
                         const prof::Profile &cand, std::size_t top_n);

/** One numeric facet of one stat, in both runs. */
struct StatDelta
{
    std::string group;
    std::string stat;  //!< full name as emitted ("core_0.ipc")
    std::string field; //!< "value", "p99", ...
    std::string unit;  //!< from the schema block, "" if unknown
    double base = 0.0;
    double cand = 0.0;

    double delta() const { return cand - base; }

    /** Relative change; an appearance from zero reads as +/-inf-ish,
     *  capped so rankings stay finite. */
    double rel() const;
};

/** Stat groups present in exactly one of the two runs. */
struct GroupPresence
{
    std::vector<std::string> added;   //!< only in the candidate
    std::vector<std::string> removed; //!< only in the baseline
};

struct StatsDiff
{
    GroupPresence presence;
    /** Largest relative movements among common scalar/formula stats. */
    std::vector<StatDelta> top;
    /** mean/p50/p95/p99/p999 deltas of common distribution stats that
     *  moved, ranked by |relative change|.  An absent percentile key
     *  (e.g. "p999" in a schema-v1 base) reads as 0, so its
     *  appearance in the candidate surfaces as a delta. */
    std::vector<StatDelta> percentiles;
};

StatsDiff diffStats(const StatsRun &base, const StatsRun &cand,
                    std::size_t top_n);

/** Headline metrics of one run, the row unit of scaling analysis. */
struct RunSummary
{
    std::string label;
    std::string topology;
    std::uint32_t cores = 0;
    std::uint32_t dir_banks = 1;

    double cycles = 0.0; //!< max core halt_tick
    double insts = 0.0;  //!< summed committed instructions
    double throughput = 0.0; //!< insts / cycles
    double rollbacks = 0.0;

    double msgs = 0.0;
    double hops = 0.0;
    double links_used = 0.0;
    double hot_link_msgs = 0.0;
    double hot_link_busy = 0.0;

    /** max per-core insts over mean: 1.0 is perfectly balanced. */
    double core_imbalance = 0.0;
};

RunSummary summarize(const RunInput &run);

struct ScalingRow
{
    RunSummary summary;
    std::string axis_label; //!< "16", "mesh", ...
    double axis_value = 0.0; //!< 0 for categorical axes
    double speedup = 1.0;    //!< throughput over the first row's
    double efficiency = 1.0; //!< speedup / axis growth (numeric axes)
};

struct ScalingTable
{
    std::string axis; //!< cores | dir_banks | topology
    std::vector<ScalingRow> rows; //!< input order (the sweep order)
};

/**
 * Scaling analysis of @p runs along @p axis.  Rows keep input order;
 * speedup/efficiency are relative to the first run, which callers
 * should therefore pass as the sweep's starting point.
 */
ScalingTable buildScaling(const std::vector<RunInput> &runs,
                          const std::string &axis);

} // namespace fenceless::analysis
