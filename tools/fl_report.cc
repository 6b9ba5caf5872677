/**
 * @file
 * fl_report: cross-run comparison and regression triage for
 * fenceless artifacts.
 *
 * Ingests N `--stats-json` documents (optionally paired with their
 * `--profile-out` documents) plus optional bench_scaling
 * `--sweep-json` rows, and renders:
 *
 *  - differential waste attribution (per-bucket and per-PC cycle
 *    deltas, exact integer counts) between the baseline and the
 *    candidate (the last run given);
 *  - scaling analysis along a swept axis (cores, dir_banks, topology)
 *    with throughput, parallel efficiency, core imbalance and NoC
 *    hot-link trends;
 *  - a deterministic markdown and/or self-contained HTML report
 *    (embedded flamegraph diff), a difffolded
 *    flamegraph file, and a terse triage block for CI.
 *
 * Output is byte-identical for identical inputs; documents with a
 * mismatched schema_version, or profiles with another waste-bucket
 * taxonomy, are refused rather than misread.
 *
 * Usage:
 *   fl_report --baseline=LABEL=stats.json[,profile.json]
 *             [--run=LABEL=stats.json[,profile.json]]...
 *             [--sweep-json=FILE] [--axis=cores|dir_banks|topology]
 *             [--md=FILE] [--html=FILE] [--folded-diff=FILE]
 *             [--triage] [--top=N]
 *
 * With no output option the markdown report goes to stdout.  A FILE
 * of "-" also means stdout.
 */

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/loader.hh"
#include "analysis/report.hh"

namespace
{

using namespace fenceless::analysis;

struct RunSpec
{
    std::string label;
    std::string stats_path;
    std::string profile_path; //!< optional
};

struct Cli
{
    std::vector<RunSpec> runs; //!< baseline first
    std::string sweep_path;
    std::string axis;
    std::string md_path;
    std::string html_path;
    std::string folded_path;
    bool triage = false;
    bool md_requested = false;
    std::size_t top_n = 10;
};

void
printUsage(std::ostream &os)
{
    os << "usage: fl_report --baseline=LABEL=stats.json[,profile.json]\n"
       << "                 [--run=LABEL=stats.json[,profile.json]]...\n"
       << "                 [--sweep-json=FILE]\n"
       << "                 [--axis=cores|dir_banks|topology]\n"
       << "                 [--md=FILE] [--html=FILE]\n"
       << "                 [--folded-diff=FILE] [--triage]\n"
       << "                 [--top=N]\n";
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "fl_report: " << msg << "\n";
    printUsage(std::cerr);
    std::exit(2);
}

RunSpec
parseRunSpec(const std::string &spec, const char *option)
{
    // LABEL=stats.json[,profile.json]
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0)
        usageError(std::string(option) +
                   " wants LABEL=stats.json[,profile.json], got '" +
                   spec + "'");
    RunSpec out;
    out.label = spec.substr(0, eq);
    const std::string paths = spec.substr(eq + 1);
    const auto comma = paths.find(',');
    if (comma == std::string::npos) {
        out.stats_path = paths;
    } else {
        out.stats_path = paths.substr(0, comma);
        out.profile_path = paths.substr(comma + 1);
    }
    if (out.stats_path.empty())
        usageError(std::string(option) + " has an empty stats path");
    return out;
}

/** The positive integer @p text spells in full, or a usage error. */
std::size_t
parseCount(const std::string &text, const char *option)
{
    std::size_t n = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, n);
    if (ec != std::errc() || ptr != end || n == 0)
        usageError(std::string(option) +
                   " wants a positive integer, got '" + text + "'");
    return n;
}

Cli
parseArgs(int argc, char **argv)
{
    Cli cli;
    bool have_baseline = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string name =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        const bool flag =
            name == "--triage" || name == "--help" || name == "-h";
        if (flag && eq != std::string::npos)
            usageError(name + " takes no value, got '" + arg + "'");
        if (name == "--baseline") {
            if (have_baseline)
                usageError("--baseline given twice");
            have_baseline = true;
            cli.runs.insert(cli.runs.begin(),
                            parseRunSpec(value, "--baseline"));
        } else if (name == "--run") {
            cli.runs.push_back(parseRunSpec(value, "--run"));
        } else if (name == "--sweep-json") {
            cli.sweep_path = value;
        } else if (name == "--axis") {
            if (value != "cores" && value != "dir_banks" &&
                value != "topology")
                usageError("--axis must be one of cores, dir_banks, "
                           "topology");
            cli.axis = value;
        } else if (name == "--md") {
            cli.md_path = value;
            cli.md_requested = true;
        } else if (name == "--html") {
            cli.html_path = value;
        } else if (name == "--folded-diff") {
            cli.folded_path = value;
        } else if (name == "--triage") {
            cli.triage = true;
        } else if (name == "--top") {
            cli.top_n = parseCount(value, "--top");
        } else if (name == "--help" || name == "-h") {
            printUsage(std::cout);
            std::exit(0);
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }
    if (cli.runs.empty() && cli.sweep_path.empty())
        usageError("need at least --baseline or --sweep-json");
    return cli;
}

bool
loadRun(const RunSpec &spec, RunInput &out, std::string &error)
{
    std::string text;
    if (!readFile(spec.stats_path, text, error))
        return false;
    if (!loadStatsRun(text, spec.label, out.stats, error)) {
        error = spec.stats_path + ": " + error;
        return false;
    }
    out.label = spec.label;
    if (spec.profile_path.empty())
        return true;
    if (!readFile(spec.profile_path, text, error))
        return false;
    if (!loadProfile(text, out.profile, error)) {
        error = spec.profile_path + ": " + error;
        return false;
    }
    out.has_profile = true;
    return true;
}

/** Write via @p writer to @p path, or stdout for "" / "-". */
template <typename Writer>
bool
emit(const std::string &path, Writer writer)
{
    if (path.empty() || path == "-") {
        writer(std::cout);
        return true;
    }
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        std::cerr << "fl_report: cannot open '" << path
                  << "' for writing\n";
        return false;
    }
    writer(os);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli = parseArgs(argc, argv);

    std::vector<RunInput> runs;
    for (const RunSpec &spec : cli.runs) {
        RunInput run;
        std::string error;
        if (!loadRun(spec, run, error)) {
            std::cerr << "fl_report: " << error << "\n";
            return 1;
        }
        runs.push_back(std::move(run));
    }

    std::vector<Json> sweep_rows;
    if (!cli.sweep_path.empty()) {
        std::string text, error;
        if (!readFile(cli.sweep_path, text, error) ||
            !loadSweepRows(text, sweep_rows, error)) {
            std::cerr << "fl_report: " << cli.sweep_path << ": "
                      << error << "\n";
            return 1;
        }
    }

    if (runs.empty() && sweep_rows.empty()) {
        std::cerr << "fl_report: nothing to report on\n";
        return 1;
    }

    ReportModel model =
        buildReport(std::move(runs), std::move(sweep_rows), cli.axis,
                    cli.top_n);

    const bool default_md = !cli.md_requested &&
                            cli.html_path.empty() &&
                            cli.folded_path.empty() && !cli.triage;
    bool ok = true;
    if (cli.md_requested || default_md) {
        ok = emit(cli.md_path, [&](std::ostream &os) {
                 writeMarkdown(os, model);
             }) && ok;
    }
    if (!cli.html_path.empty()) {
        ok = emit(cli.html_path, [&](std::ostream &os) {
                 writeHtml(os, model);
             }) && ok;
    }
    if (!cli.folded_path.empty()) {
        if (!model.has_profile_diff) {
            std::cerr << "fl_report: --folded-diff needs profiles on "
                         "both the baseline and the candidate\n";
            ok = false;
        } else {
            ok = emit(cli.folded_path, [&](std::ostream &os) {
                     writeFoldedDiff(os, model);
                 }) && ok;
        }
    }
    if (cli.triage)
        writeTriage(std::cout, model);
    return ok ? 0 : 1;
}
