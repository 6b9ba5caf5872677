/**
 * @file
 * Report rendering for fl_report: one ReportModel built from the
 * loaded runs, rendered by independent writers into markdown, a
 * self-contained HTML page, a folded flamegraph diff, and a terse
 * triage block for CI regression messages.
 *
 * Every writer is deterministic: identical inputs produce
 * byte-identical output.  That is a hard interface guarantee -- the
 * test suite commits golden markdown and compares byte-for-byte --
 * so renderers only consume the deterministic fields the loaders
 * kept, format floats through fixed-precision helpers, and iterate
 * sorted containers.  No timestamps, no file paths, no git hashes.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/diff.hh"
#include "analysis/loader.hh"

namespace fenceless::analysis
{

/**
 * Everything a renderer needs, computed once.  runs[0] is the
 * baseline; when at least two runs are present the differential
 * sections compare the baseline against the *last* run (the
 * candidate), and the scaling section walks all runs in order.
 */
struct ReportModel
{
    std::vector<RunInput> runs;
    std::vector<RunSummary> summaries; //!< parallel to runs

    bool has_diff = false;         //!< >= 2 runs loaded
    StatsDiff stats_diff;          //!< baseline vs candidate
    bool has_profile_diff = false; //!< both ends carried profiles
    ProfileDiff profile_diff;

    std::string axis;    //!< "" disables the scaling section
    ScalingTable scaling;

    std::vector<Json> sweep_rows; //!< bench_scaling --sweep-json rows

    std::size_t top_n = 10;

    const RunInput &baseline() const { return runs.front(); }
    const RunInput &candidate() const { return runs.back(); }
};

/**
 * Build the model: summarize every run, diff baseline vs candidate
 * when two or more runs are present, and run scaling analysis when
 * @p axis is non-empty.
 */
ReportModel buildReport(std::vector<RunInput> runs,
                        std::vector<Json> sweep_rows,
                        const std::string &axis, std::size_t top_n);

/** The full report as markdown (the golden-tested format). */
void writeMarkdown(std::ostream &os, const ReportModel &model);

/**
 * The full report as one self-contained HTML page: no external
 * scripts or stylesheets, with the flamegraph diff rendered as
 * paired CSS bars.
 */
void writeHtml(std::ostream &os, const ReportModel &model);

/**
 * The flamegraph diff in difffolded format: one
 * "stack base_cycles cand_cycles" line per stack, sorted, directly
 * consumable by flamegraph.pl --negate / inferno-diff-folded.
 */
void writeFoldedDiff(std::ostream &os, const ReportModel &model);

/**
 * A terse triage block for CI: waste-bucket deltas, the worst
 * regressed symbols, and hot-link movement, as stable
 * "triage: ..." lines check_bench_regression.py can append to a
 * failure message.
 */
void writeTriage(std::ostream &os, const ReportModel &model);

// --- formatting helpers (shared with tests) --------------------------

/** Unsigned count, plain digits. */
std::string fmtCount(std::uint64_t v);

/** Signed delta with an explicit sign ("+12", "-3", "0"). */
std::string fmtDelta(std::int64_t v);

/** Fixed 3-decimal float ("0.875"). */
std::string fmtF3(double v);

/** Relative change as a percentage ("+12.5%"), "n/a" off zero. */
std::string fmtPct(double base, double cand);

} // namespace fenceless::analysis
