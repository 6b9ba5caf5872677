#include "harness/options.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "sim/trace_sink.hh"

namespace fenceless::harness
{

namespace
{

const char *known_options[] = {
    "cores", "model", "spec", "granularity", "overflow", "sb-size",
    "l1-kb", "l2-kb", "dram-latency", "net-latency", "topology",
    "hop-latency", "dir-banks", "scale", "seed",
    "jobs", "csv", "trace", "trace-out", "stats-json", "stats-interval",
    "sweep-json",
    "profile-out", "waste-report", "blackbox-out", "blackbox",
    "watchdog-interval", "watchdog-storm", "tail-sample", "tail-report",
    "outliers-out", "outliers", "help",
};

bool
isKnown(const std::string &name)
{
    for (const char *k : known_options) {
        if (name == k)
            return true;
    }
    return false;
}

/**
 * Fail fast on an unwritable output path: a long run that only
 * discovers a bad --trace-out / --stats-json / --profile-out at exit
 * loses all of its output.  Open in append mode (creates the file,
 * never truncates an existing one before the run actually writes).
 */
void
requireWritable(const char *option, const std::string &path)
{
    std::ofstream os(path, std::ios::app);
    if (!os) {
        fatal("--", option, ": cannot open '", path,
              "' for writing");
    }
}

} // namespace

Options::Options(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '", arg,
                  "' (only --option[=value] is supported)");
        arg = arg.substr(2);
        std::string name = arg;
        std::string value = "1";
        if (auto eq = arg.find('='); eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        }
        if (!isKnown(name))
            fatal("unknown option '--", name, "' (try --help)");
        values_[name] = value;
    }

    if (has("help")) {
        printUsage(argv[0] ? argv[0] : "binary");
        std::exit(0);
    }
    csv_ = has("csv");
    scale_ = static_cast<unsigned>(getInt("scale", 1));
    seed_ = getInt("seed", 42);
    jobs_ = static_cast<unsigned>(getInt("jobs", 0));

    for (const char *opt : {"trace-out", "stats-json", "profile-out",
                            "blackbox-out", "sweep-json",
                            "outliers-out"}) {
        if (has(opt))
            requireWritable(opt, get(opt));
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
    if (has("trace")) {
        std::uint32_t mask = 0;
        std::string error;
        if (!trace::parseFlags(get("trace"), mask, error))
            fatal("--trace: ", error);
        base.trace_mask = mask;
    } else if (has("trace-out")) {
        // An output file without an explicit flag set means "record
        // everything": the common quick-look invocation.
        base.trace_mask =
            static_cast<std::uint32_t>(trace::Flag::All);
    }
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
    // period; --tail-sample=N sets the period explicitly (1 = every
    // miss).  Off by default: the sanctioned outputs must stay
    // byte-identical when no tail option is given.
    if (has("tail-sample") || has("tail-report") ||
        has("outliers-out") || has("outliers")) {
        base.tail_sample = getInt("tail-sample", 64);
        if (base.tail_sample == 0) {
            std::cerr << "warning: --tail-sample=0 disables span "
                         "tracing; tail outputs will be empty\n";
        }
        base.tail_outliers =
            static_cast<std::uint32_t>(getInt("outliers", 10));
    }
    return base;
}

void
Options::printUsage(const std::string &prog)
{
    std::cout
        << "usage: " << prog << " [options]\n"
        << "  --cores=N             number of cores (up to 64)\n"
        << "  --model=sc|tso|rmo    consistency model\n"
        << "  --spec=off|on-demand|continuous\n"
        << "  --granularity=block|per-store\n"
        << "  --overflow=stall|rollback\n"
        << "  --sb-size=N           store-buffer entries\n"
        << "  --l1-kb=N             L1 size (KiB)\n"
        << "  --l2-kb=N             L2 size (KiB)\n"
        << "  --dram-latency=N      DRAM latency (cycles)\n"
        << "  --net-latency=N       crossbar flat latency (cycles)\n"
        << "  --topology=T          interconnect: crossbar|ring|mesh\n"
        << "  --hop-latency=N       per-hop latency for ring/mesh\n"
           "                        (cycles, default 3)\n"
        << "  --dir-banks=N         directory banks (power of two,\n"
           "                        1..64; banks interleave by block)\n"
        << "  --scale=N             workload scaling factor\n"
        << "  --seed=N              workload seed\n"
        << "  --jobs=N              host threads for independent runs\n"
           "                        (default: hardware concurrency;\n"
           "                        1 = sequential; output identical)\n"
        << "  --csv                 machine-readable tables\n"
        << "  --trace=f1,f2         structured-trace flags ("
        << trace::validFlagNames() << ")\n"
        << "  --trace-out=FILE      write Chrome trace-event JSON\n"
           "                        (implies --trace=all if no --trace)\n"
        << "  --stats-json=FILE     write the stat registry as JSON\n"
        << "  --stats-interval=N    snapshot stats every N cycles into\n"
           "                        the --stats-json time series\n"
        << "  --sweep-json=FILE     benchmarks that sweep an axis also\n"
           "                        write one JSON object per sweep\n"
           "                        point (fl_report --sweep-json)\n"
        << "  --profile-out=FILE    write the waste-attribution profile\n"
           "                        as JSON plus FILE.folded (flamegraph\n"
           "                        folded stacks)\n"
        << "  --waste-report        print the top-N waste table\n"
        << "  --blackbox-out=FILE   dump the flight recorder after the\n"
           "                        run (Chrome trace-event JSON)\n"
        << "  --blackbox=N          flight-recorder depth per component\n"
           "                        (default 256; 0 = off)\n"
        << "  --watchdog-interval=N hang-watchdog window in cycles\n"
           "                        (default 100000; 0 = off)\n"
        << "  --watchdog-storm=N    rollbacks/window classified as a\n"
           "                        rollback storm (default 256)\n"
        << "  --tail-sample=N       trace 1 in N misses end to end\n"
           "                        (1 = every miss; byte-identical\n"
           "                        for any --jobs)\n"
        << "  --tail-report         print the critical-path stage\n"
           "                        attribution table (implies\n"
           "                        --tail-sample=64 if unset)\n"
        << "  --outliers-out=FILE   write top-K slowest-request\n"
           "                        dossiers as JSON (implies span\n"
           "                        tracing like --tail-report)\n"
        << "  --outliers=K          dossiers to keep (default 10)\n"
        << "  --help                this message\n";
}

} // namespace fenceless::harness
