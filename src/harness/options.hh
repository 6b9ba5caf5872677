/**
 * @file
 * Command-line option parsing for the examples and benchmark binaries.
 *
 * Keeps the binaries scriptable without pulling in a flags library:
 *
 *     harness::Options opts(argc, argv);
 *     harness::SystemConfig cfg = opts.applyTo(defaults);
 *     if (opts.csv()) ...
 *
 * Recognised options (all optional):
 *     --cores=N            number of cores
 *     --model=sc|tso|rmo   consistency model
 *     --spec=off|on-demand|continuous
 *     --granularity=block|per-store
 *     --overflow=stall|rollback
 *     --sb-size=N          store-buffer entries
 *     --l1-kb=N            L1 size in KiB
 *     --l2-kb=N            L2 size in KiB
 *     --dram-latency=N     cycles
 *     --net-latency=N      crossbar flat latency in cycles
 *     --topology=T         interconnect topology: crossbar|ring|mesh
 *                          (unknown values are fatal, like --model)
 *     --hop-latency=N      per-hop latency for ring/mesh (cycles)
 *     --dir-banks=N        directory banks (power of two, 1..64;
 *                          bad values warn and round down, never
 *                          abort -- every bank count is functionally
 *                          equivalent)
 *     --scale=N            workload scaling factor
 *     --seed=N             workload seed where applicable
 *     --jobs=N             host threads for independent runs
 *                          (0/default = hardware concurrency,
 *                          1 = sequential legacy path)
 *     --csv                machine-readable table output
 *     --trace=f1,f2        structured-trace flags (see trace.hh)
 *     --trace-out=FILE     Chrome trace-event / Perfetto JSON output
 *                          (implies --trace=all when --trace is absent)
 *     --stats-json=FILE    full stat registry as JSON
 *     --stats-interval=N   periodic stat snapshots every N cycles
 *     --sweep-json=FILE    benchmarks that sweep an axis also write
 *                          one JSON object per sweep point (consumed
 *                          by fl_report --sweep-json)
 *     --profile-out=FILE   waste-attribution profile as JSON, plus
 *                          FILE.folded (flamegraph folded stacks)
 *     --waste-report       print the top-N waste table to stdout
 *     --blackbox-out=FILE  dump the flight recorder after the run as
 *                          Chrome trace-event JSON (same format as
 *                          --trace-out, but only the ring tail)
 *     --blackbox=N         flight-recorder depth per component
 *                          (default 256; 0 disables the recorder)
 *     --watchdog-interval=N  hang-watchdog window in cycles
 *                          (default 100000; 0 disables the watchdog)
 *     --watchdog-storm=N   rollbacks per window that classify a hang
 *                          as a rollback storm (default 256)
 *     --tail-sample=N      per-request span tracing: trace 1 in N
 *                          misses end to end (1 = every miss; the
 *                          sampled set is byte-identical for any
 *                          --jobs value)
 *     --tail-report        print the critical-path stage-attribution
 *                          table after the run (implies
 *                          --tail-sample=64 when unset)
 *     --outliers-out=FILE  write the top-K slowest-request dossiers
 *                          as JSON (implies span tracing)
 *     --outliers=K         dossiers to keep (default 10)
 *     --help               print usage and exit
 *
 * Output paths (--trace-out, --stats-json, --profile-out) are opened
 * for writing at parse time and rejected immediately when unwritable,
 * so a bad path fails before the simulation instead of after it.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness/system.hh"

namespace fenceless::harness
{

class Options
{
  public:
    /**
     * Parse argv.  Unknown --options are fatal (typos should not
     * silently run the default experiment); positional arguments are
     * not supported.  `--help` prints usage and exits.
     */
    Options(int argc, char **argv);

    /** Overlay the parsed options onto @p base and return the result. */
    SystemConfig applyTo(SystemConfig base) const;

    bool csv() const { return csv_; }
    unsigned scale() const { return scale_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Worker threads for host-parallel sweeps (SweepRunner); 0 means
     * "pick the hardware concurrency".  Output is byte-identical for
     * every value -- see harness/sweep.hh.
     */
    unsigned jobs() const { return jobs_; }

    /** Path for --trace-out ("" = no trace export requested). */
    std::string traceOut() const { return get("trace-out"); }

    /** Path for --stats-json ("" = no JSON stats requested). */
    std::string statsJson() const { return get("stats-json"); }

    /**
     * Path for --sweep-json ("" = not requested): benchmarks that
     * sweep an axis append one JSON object per sweep point, one per
     * line, for fl_report's scaling analysis.
     */
    std::string sweepJson() const { return get("sweep-json"); }

    /** Path for --profile-out ("" = no profile export requested). */
    std::string profileOut() const { return get("profile-out"); }

    /** Path for --blackbox-out ("" = no on-demand dump requested). */
    std::string blackboxOut() const { return get("blackbox-out"); }

    /** @return true if --waste-report was passed. */
    bool wasteReport() const { return has("waste-report"); }

    /** @return true if --tail-report was passed. */
    bool tailReport() const { return has("tail-report"); }

    /** Path for --outliers-out ("" = no dossiers requested). */
    std::string outliersOut() const { return get("outliers-out"); }

    /** @return true if any profiler output was requested. */
    bool
    profiling() const
    {
        return has("profile-out") || has("waste-report");
    }

    /** @return true if the user passed the given option. */
    bool has(const std::string &name) const
    {
        return values_.count(name) > 0;
    }

    /** Raw string value of an option ("" if absent). */
    std::string get(const std::string &name) const;

    /** Integer value of an option (or @p fallback). */
    std::uint64_t getInt(const std::string &name,
                         std::uint64_t fallback) const;

    static void printUsage(const std::string &prog);

  private:
    std::map<std::string, std::string> values_;
    bool csv_ = false;
    unsigned scale_ = 1;
    std::uint64_t seed_ = 42;
    unsigned jobs_ = 0;
};

} // namespace fenceless::harness
