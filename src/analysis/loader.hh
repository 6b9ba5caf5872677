/**
 * @file
 * Loaders that turn the simulator's own JSON artifacts back into
 * typed in-memory runs for cross-run analysis.
 *
 * Three document families feed fl_report:
 *
 *  - `--stats-json` documents (schema_version, provenance with
 *    sim_mode, groups of typed stats, the self-describing schema
 *    block, periodic snapshots);
 *  - `--profile-out` documents (waste-bucket taxonomy plus per-PC,
 *    per-line and per-rollback views);
 *  - `--sweep-json` rows from bench_scaling (one JSON object per
 *    line, one line per sweep point).
 *
 * Loading is strict about *versions* and tolerant about *content*:
 * a schema_version mismatch is refused outright (comparing documents
 * whose field meanings may have drifted silently is exactly the bug
 * class this tool exists to catch), but stat groups present in one
 * run and absent in another -- `l2dir.bank3` vs a monolithic `l2dir`
 * -- load fine and surface later as added/removed groups in the diff,
 * never as a crash.  Keys the loader does not know are ignored, so
 * older documents with extra sections still load.
 *
 * Only deterministic fields are retained.  The provenance git hash
 * exists in the documents but never reaches the report, which is what
 * keeps reports byte-identical for identical simulated inputs.
 */

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/json.hh"

namespace fenceless::analysis
{

/**
 * One stat rendered as named numeric fields.  Scalars and formulas
 * carry {"value"}; distributions carry {"n", "mean", "min", "max",
 * "stdev", "p50", "p95", "p99", "p999", "total"}; histograms carry
 * {"n", "underflow", "overflow"}.  Keeping the fields generic lets the
 * diff layer walk every numeric facet -- including the
 * PercentileSketch percentiles -- with one code path, and makes the
 * loader tolerant of absent or extra percentile keys: schema-v1
 * artifacts (no "p999") load fine, with the missing field read as 0.
 */
struct StatValue
{
    std::string kind; //!< scalar | formula | distribution | histogram
    std::map<std::string, double> fields;

    /** The headline number: value for scalars, total for
     *  distributions, n for histograms. */
    double primary() const;

    double
    field(const std::string &name) const
    {
        auto it = fields.find(name);
        return it == fields.end() ? 0.0 : it->second;
    }
};

/** One entry of the self-describing stats schema block. */
struct SchemaEntry
{
    std::string kind;
    std::string unit;
    std::string desc;
};

/** One parsed --stats-json document. */
struct StatsRun
{
    std::string label;
    int schema_version = 0;

    // sim_mode provenance (deterministic; the git hash is dropped)
    std::uint32_t dir_banks = 1;
    std::string topology;

    /** group name -> stat full name -> value */
    std::map<std::string, std::map<std::string, StatValue>> groups;
    std::map<std::string, SchemaEntry> schema;

    /** Group names in deterministic (sorted) order. */
    std::vector<std::string> groupNames() const;

    /**
     * Scalar/primary value of @p stat inside @p group; 0 when the
     * group or stat is absent (tolerance, not an error).
     */
    double scalar(const std::string &group,
                  const std::string &stat) const;

    const StatValue *find(const std::string &group,
                          const std::string &stat) const;

    /**
     * Sum @p stat's primary value over every group whose name starts
     * with @p group_prefix ("core_", "l1_", "l2dir").  Bridges banked
     * vs monolithic directory stats: summing over the "l2dir" prefix
     * covers both `l2dir` and every `l2dir.bank<b>`.
     */
    double sumOver(const std::string &group_prefix,
                   const std::string &stat) const;

    /** Max of @p stat's primary value over matching groups. */
    double maxOver(const std::string &group_prefix,
                   const std::string &stat) const;

    /** Number of groups matching @p group_prefix. */
    std::size_t countGroups(const std::string &group_prefix) const;
};

/** One parsed --profile-out document. */
struct ProfileRun
{
    struct PcRow
    {
        std::uint64_t pc = 0;
        std::uint64_t execs = 0;
        /** bucket name -> cycles; integer counts, diffed exactly. */
        std::map<std::string, std::uint64_t> cycles;

        std::uint64_t total() const;
        std::uint64_t wasted() const; //!< total minus execute
    };

    struct LineRow
    {
        std::uint64_t touches = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t ping_pongs = 0;
        std::uint32_t cores_touched = 0;
        bool false_sharing = false;
    };

    struct RollbackRow
    {
        std::uint64_t count = 0;
        std::uint64_t discarded_insts = 0;
    };

    int schema_version = 0;
    std::vector<std::string> buckets; //!< taxonomy, document order
    std::map<std::string, PcRow> pcs; //!< sym -> row
    std::map<std::string, LineRow> lines;
    /** "cause|victim|line" -> row */
    std::map<std::string, RollbackRow> rollbacks;

    /** Whole-run cycles per bucket (exact integer sums over pcs). */
    std::map<std::string, std::uint64_t> bucketTotals() const;
};

/** A label plus the artifacts loaded for one simulator run. */
struct RunInput
{
    std::string label;
    StatsRun stats;
    bool has_profile = false;
    ProfileRun profile;
};

/** Slurp @p path; false + @p error on I/O failure. */
bool readFile(const std::string &path, std::string &out,
              std::string &error);

/**
 * Parse @p text as a --stats-json document into @p out.  Fails on
 * malformed JSON, a missing/unknown schema_version, or a top-level
 * shape that is not an object.  Unknown groups and stats load fine.
 */
bool loadStatsRun(const std::string &text, const std::string &label,
                  StatsRun &out, std::string &error);

/** Parse @p text as a --profile-out document into @p out. */
bool loadProfileRun(const std::string &text, ProfileRun &out,
                    std::string &error);

/**
 * Parse bench_scaling --sweep-json rows: one JSON object per line,
 * blank lines skipped.  Rows keep their generic Json form; the
 * scaling renderer pulls named fields out.
 */
bool loadSweepRows(const std::string &text, std::vector<Json> &out,
                   std::string &error);

} // namespace fenceless::analysis
