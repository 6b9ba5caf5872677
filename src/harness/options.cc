#include "harness/options.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <vector>

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace fenceless::harness
{

namespace
{

/** One option: its --help entry and the set it belongs to. */
struct OptionSpec
{
    const char *usage; //!< "--NAME" or "--NAME=ARG", --help's left column
    std::string help;  //!< right column; '\n' starts a continuation line
    Options::Set set;
    /**
     * The outputs this option only shapes: given without any of them,
     * it would do nothing (or work no output reads), so it is fatal.
     */
    std::vector<const char *> needs = {};

    /** NAME: what argv spells between "--" and any "=". */
    std::string
    name() const
    {
        const std::string u = usage + 2;
        return u.substr(0, u.find('='));
    }
};

/** Every option, in --help order. */
const std::vector<OptionSpec> &
optionTable()
{
    using O = Options;
    static const std::vector<OptionSpec> table = {
        {"--cores=N", "number of cores (up to 64)", O::Machine},
        {"--model=sc|tso|rmo", "consistency model", O::Machine},
        {"--spec=off|on-demand|continuous", "", O::Machine},
        {"--granularity=block|per-store", "", O::Machine},
        {"--overflow=stall|rollback", "", O::Machine},
        {"--sb-size=N", "store-buffer entries", O::Machine},
        {"--l1-kb=N", "L1 size (KiB)", O::Machine},
        {"--l2-kb=N", "L2 size (KiB)", O::Machine},
        {"--dram-latency=N", "DRAM latency (cycles)", O::Machine},
        {"--net-latency=N", "crossbar flat latency (cycles)", O::Machine},
        {"--topology=T", "interconnect: crossbar|ring|mesh", O::Machine},
        {"--hop-latency=N",
         "per-hop latency for ring/mesh\n(cycles, default 3)", O::Machine},
        {"--dir-banks=N",
         "directory banks (power of two,\n"
         "1..64; banks interleave by block)",
         O::Machine},
        {"--scale=N", "workload scaling factor", O::ScaleCsv},
        {"--jobs=N",
         "host threads for independent runs\n"
         "(default: hardware concurrency;\n"
         "1 = sequential; output identical)",
         O::Jobs},
        {"--csv", "machine-readable tables", O::ScaleCsv},
        {"--trace-out=FILE",
         "write Chrome trace-event JSON of\n"
         "every event kind (implies\n"
         "--tail-sample=64 if unset: its\n"
         "request arrows are sampled spans)",
         O::Artifacts},
        {"--stats-json=FILE", "write the stat registry as JSON",
         O::Artifacts},
        {"--stats-interval=N",
         "snapshot stats every N cycles into\n"
         "the --stats-json time series\n"
         "(needs --stats-json)",
         O::Artifacts, {"stats-json"}},
        {"--sweep-json=FILE",
         "benchmarks that sweep an axis also\n"
         "write one JSON object per sweep\n"
         "point (fl_report --sweep-json)",
         O::SweepJson},
        {"--profile-out=FILE",
         "write the waste-attribution profile\n"
         "as JSON plus FILE.folded (flamegraph\n"
         "folded stacks)",
         O::Profile},
        {"--waste-report", "print bucket totals and top-N tables",
         O::Profile},
        {"--blackbox-out=FILE",
         "dump the flight recorder after the\n"
         "run (Chrome trace-event JSON)",
         O::Artifacts},
        {"--blackbox=N",
         "flight-recorder depth per component\n(default 256; 0 = off)",
         O::Artifacts},
        {"--watchdog-interval=N",
         "hang-watchdog window in cycles\n(default 100000; 0 = off)",
         O::Artifacts},
        {"--watchdog-storm=N",
         "rollbacks/window classified as a\n"
         "rollback storm (default 256)",
         O::Artifacts},
        {"--tail-sample=N",
         "trace 1 in N misses end to end\n"
         "(1 = every miss; needs an output\n"
         "that reads spans: --tail-report,\n"
         "--outliers-out, --trace-out or\n"
         "--stats-json)",
         O::Artifacts,
         {"tail-report", "outliers-out", "trace-out", "stats-json"}},
        {"--tail-report",
         "print the critical-path stage\n"
         "attribution table (implies\n"
         "--tail-sample=64 if unset)",
         O::Artifacts},
        {"--outliers-out=FILE",
         "write top-K slowest-request\n"
         "dossiers as JSON (implies span\n"
         "tracing like --tail-report)",
         O::Artifacts},
        {"--outliers=K",
         "dossiers to keep (default 10;\n"
         "needs --outliers-out)",
         O::Artifacts, {"outliers-out"}},
        {"--healthy",
         "skip the injected fault: the run\n"
         "completes, verifies and exits 0",
         O::Healthy},
    };
    return table;
}

/** The options @p sets accepts: the table rows in them, then --help. */
void
printUsage(const std::string &prog, unsigned sets)
{
    auto entry = [](const std::string &usage, const std::string &help) {
        std::cout << "  " << std::left << std::setw(22) << usage;
        for (char c : help)
            std::cout << c << (c == '\n' ? std::string(24, ' ') : "");
        std::cout << "\n";
    };
    std::cout << "usage: " << prog << " [options]\n";
    for (const OptionSpec &opt : optionTable()) {
        if (opt.set & sets)
            entry(opt.usage, opt.help);
    }
    entry("--help", "this message");
}

/**
 * Fail fast on an unwritable output path: a long run that only
 * discovers a bad --trace-out / --stats-json / --profile-out at exit
 * loses all of its output.  Open in append mode (creates the file,
 * never truncates an existing one before the run actually writes).
 */
void
requireWritable(const std::string &option, const std::string &path)
{
    std::ofstream os(path, std::ios::app);
    if (!os) {
        fatal("--", option, ": cannot open '", path,
              "' for writing");
    }
}

} // namespace

Options::Options(int argc, char **argv, unsigned sets)
{
    const auto &table = optionTable();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '", arg,
                  "' (only --option[=value] is supported)");
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const auto spec = std::find_if(
            table.begin(), table.end(), [&](const OptionSpec &opt) {
                return (opt.set & sets) && name == opt.name();
            });
        if (spec == table.end() && name != "help")
            fatal("unknown option '--", name, "' (try --help)");
        // The usage spells the shape: "--NAME=ARG" needs a value and
        // "--NAME" takes none.
        const char *usage = spec == table.end() ? "--help" : spec->usage;
        const bool wants_value = std::strchr(usage, '=') != nullptr;
        if (wants_value != (eq != std::string::npos))
            fatal("option --", name,
                  wants_value ? " needs a value" : " takes no value",
                  " (usage: ", usage, ")");
        values_[name] = wants_value ? arg.substr(eq + 1) : "";
    }

    if (has("help")) {
        printUsage(argv[0] ? argv[0] : "binary", sets);
        std::exit(0);
    }
    csv_ = has("csv");
    scale_ = static_cast<unsigned>(getInt("scale", 1));
    jobs_ = static_cast<unsigned>(getInt("jobs", 0));

    for (const OptionSpec &opt : table) {
        if (opt.needs.empty() || !has(opt.name()) ||
            std::any_of(opt.needs.begin(), opt.needs.end(),
                        [&](const char *out) { return has(out); }))
            continue;
        const std::size_t n = opt.needs.size();
        std::string outputs;
        for (std::size_t i = 0; i < n; ++i) {
            outputs += i == 0 ? "--" : i + 1 == n ? " or --" : ", --";
            outputs += opt.needs[i];
        }
        fatal("option --", opt.name(), " needs ", outputs, ", the output",
              n > 1 ? "s" : "", " it shapes");
    }

    // An option whose argument is FILE names an output path.
    for (const OptionSpec &opt : table) {
        const std::string name = opt.name();
        if (has(name) && std::string(opt.usage).ends_with("=FILE"))
            requireWritable(name, get(name));
    }
    if (has("profile-out")) // the folded sibling is written too
        requireWritable("profile-out", get("profile-out") + ".folded");
}

std::string
Options::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? "" : it->second;
}

std::uint64_t
Options::getInt(const std::string &name, std::uint64_t fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    try {
        return std::stoull(it->second);
    } catch (...) {
        fatal("option --", name, " expects a number, got '",
              it->second, "'");
    }
}

SystemConfig
Options::applyTo(SystemConfig base) const
{
    if (has("cores"))
        base.num_cores = static_cast<std::uint32_t>(getInt("cores", 0));
    if (has("model"))
        base.model = cpu::parseConsistencyModel(get("model"));
    if (has("spec")) {
        const std::string mode = get("spec");
        if (mode == "off") {
            base.spec.mode = spec::SpecMode::Off;
        } else if (mode == "on-demand") {
            base.spec.mode = spec::SpecMode::OnDemand;
        } else if (mode == "continuous") {
            base.spec.mode = spec::SpecMode::Continuous;
        } else {
            fatal("unknown speculation mode '", mode, "'");
        }
    }
    if (has("granularity")) {
        const std::string g = get("granularity");
        if (g == "block") {
            base.spec.granularity = spec::Granularity::Block;
        } else if (g == "per-store") {
            base.spec.granularity = spec::Granularity::PerStore;
        } else {
            fatal("unknown granularity '", g, "'");
        }
    }
    if (has("overflow")) {
        const std::string p = get("overflow");
        if (p == "stall") {
            base.spec.overflow = spec::OverflowPolicy::Stall;
        } else if (p == "rollback") {
            base.spec.overflow = spec::OverflowPolicy::Rollback;
        } else {
            fatal("unknown overflow policy '", p, "'");
        }
    }
    if (has("sb-size"))
        base.sb_size = static_cast<unsigned>(getInt("sb-size", 0));
    if (has("l1-kb"))
        base.l1.size = getInt("l1-kb", 0) * 1024;
    if (has("l2-kb"))
        base.l2.size = getInt("l2-kb", 0) * 1024;
    if (has("dram-latency"))
        base.l2.dram_latency = getInt("dram-latency", 0);
    if (has("net-latency"))
        base.net.latency = getInt("net-latency", 0);
    if (has("topology")) {
        // Unknown topology is fatal, like --model: silently simulating
        // a different interconnect would invalidate the whole run.
        mem::Topology t;
        if (!mem::parseTopology(get("topology"), t))
            fatal("unknown topology '", get("topology"),
                  "' (crossbar|ring|mesh)");
        base.net.topology = t;
    }
    if (has("hop-latency"))
        base.net.hop_latency = getInt("hop-latency", 0);
    if (has("dir-banks")) {
        // Non-fatal: any bank count is functionally correct, so round a
        // bad value down instead of dying.
        std::uint64_t banks = getInt("dir-banks", 1);
        if (banks < 1) {
            std::cerr << "warning: --dir-banks must be >= 1; using 1\n";
            banks = 1;
        }
        if (banks > 64) {
            std::cerr << "warning: --dir-banks=" << banks
                      << " exceeds 64; clamping\n";
            banks = 64;
        }
        if (!isPowerOf2(banks)) {
            std::uint64_t down = 1;
            while (down * 2 <= banks)
                down *= 2;
            std::cerr << "warning: --dir-banks=" << banks
                      << " is not a power of two; using " << down
                      << "\n";
            banks = down;
        }
        base.dir_banks = static_cast<std::uint32_t>(banks);
    }
    if (has("trace-out"))
        base.tracing = true;
    if (has("stats-interval"))
        base.stats_interval = getInt("stats-interval", 0);
    if (profiling())
        base.profile = true;
    if (has("blackbox"))
        base.blackbox_records =
            static_cast<std::size_t>(getInt("blackbox", 0));
    if (has("watchdog-interval"))
        base.watchdog_interval = getInt("watchdog-interval", 0);
    if (has("watchdog-storm"))
        base.watchdog_storm = getInt("watchdog-storm", 0);
    // --tail-report / --outliers-out imply span tracing at the default
    // period, and so does --trace-out, whose request arrows are the
    // sampled spans; --tail-sample=N sets the period explicitly (1 =
    // every miss).  Off by default: the sanctioned outputs must stay
    // byte-identical when no tail option is given.
    if (has("tail-sample") || has("tail-report") ||
        has("outliers-out") || has("trace-out")) {
        base.tail_sample = getInt("tail-sample", 64);
        if (base.tail_sample == 0) {
            std::cerr << "warning: --tail-sample=0 disables span "
                         "tracing; tail outputs will be empty\n";
        }
    }
    if (has("outliers"))
        base.tail_outliers =
            static_cast<std::uint32_t>(getInt("outliers", 10));
    return base;
}

bool
Options::writeFile(const std::string &option, const std::string &path,
                   const std::function<void(std::ostream &)> &write,
                   const std::string &announce)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "error: cannot open --" << option << " file '"
                  << path << "'\n";
        return false;
    }
    write(os);
    if (!announce.empty())
        std::cerr << announce << "\n";
    return true;
}

bool
Options::writeProfile(const prof::Profile &profile) const
{
    if (const std::string path = get("profile-out"); !path.empty()) {
        const std::string folded = path + ".folded";
        if (!writeFile("profile-out", path,
                       [&](std::ostream &os) { profile.writeJson(os); },
                       "") ||
            !writeFile("profile-out", folded,
                       [&](std::ostream &os) { profile.writeFolded(os); },
                       "profile written to " + path + " and " + folded))
            return false;
    }
    if (has("waste-report"))
        profile.writeReport(std::cout);
    return true;
}

bool
Options::writeArtifacts(const System &sys) const
{
    const char *const perfetto = " (open in ui.perfetto.dev)";
    const struct
    {
        const char *option;
        void (System::*write)(std::ostream &) const;
        const char *what;   //!< announced as "WHAT written to PATH"
        const char *suffix; //!< appended to the announcement
    } files[] = {
        {"trace-out", &System::exportTrace, "trace", perfetto},
        {"stats-json", &System::writeStatsJson, "stats", ""},
        {"blackbox-out", &System::writeBlackbox, "flight recorder",
         perfetto},
        {"outliers-out", &System::writeOutliers, "outlier dossiers", ""},
    };
    for (const auto &f : files) {
        const std::string path = get(f.option);
        if (!path.empty() &&
            !writeFile(f.option, path,
                       [&](std::ostream &os) { (sys.*f.write)(os); },
                       std::string(f.what) + " written to " + path +
                           f.suffix))
            return false;
    }
    if (profiling() && !writeProfile(sys.profile()))
        return false;
    if (has("tail-report"))
        sys.writeTailReport(std::cout);
    return true;
}

} // namespace fenceless::harness
