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
 *  - `--profile-out` documents, read into the prof::Profile the
 *    simulator wrote them from (per-PC rows only);
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

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/json.hh"
#include "sim/profiler.hh"

namespace fenceless::analysis
{

/**
 * One stat rendered as named numeric fields.  Scalars and formulas
 * carry {"value"}; distributions carry {"n", "mean", "min", "max",
 * "stdev", "p50", "p95", "p99", "p999", "total"}.  Keeping the fields
 * generic lets the diff layer walk every numeric facet -- including
 * the PercentileSketch percentiles -- with one code path, and makes the
 * loader tolerant of absent or extra percentile keys: schema-v1
 * artifacts (no "p999") load fine, with the missing field read as 0.
 */
struct StatValue
{
    std::string kind; //!< scalar | formula | distribution
    std::map<std::string, double> fields;

    /** The headline number: value for scalars and formulas, total
     *  for distributions. */
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

/** A label plus the artifacts loaded for one simulator run. */
struct RunInput
{
    std::string label;
    StatsRun stats;
    bool has_profile = false;
    prof::Profile profile;
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

/**
 * Parse @p text as a --profile-out document into @p out: the per-PC
 * rows (sym, pc, execs, cycles per bucket), the only view fl_report
 * reports.  Fails like loadStatsRun, and also when the document's
 * "buckets" list is not this build's waste taxonomy in order.
 */
bool loadProfile(const std::string &text, prof::Profile &out,
                 std::string &error);

/**
 * Parse bench_scaling --sweep-json rows: one JSON object per line,
 * blank lines skipped.  Rows keep their generic Json form; the
 * scaling renderer pulls named fields out.
 */
bool loadSweepRows(const std::string &text, std::vector<Json> &out,
                   std::string &error);

} // namespace fenceless::analysis
