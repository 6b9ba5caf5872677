/**
 * @file
 * Command-line option parsing for the examples and benchmark binaries.
 *
 * Keeps the binaries scriptable without pulling in a flags library.
 * Every binary names the option sets it honors, so an option it would
 * ignore is fatal like a typo instead of silently doing nothing:
 *
 *     harness::Options opts(argc, argv, harness::Options::Machine |
 *                                       harness::Options::Artifacts);
 *     harness::SystemConfig cfg = opts.applyTo(defaults);
 *     ...
 *     if (!opts.writeArtifacts(sys)) ...
 *
 * The option table in options.cc is the one list of options; `--help`
 * prints the entries of the binary's sets, so each binary documents
 * exactly what it accepts.  Output paths are opened for writing once
 * every option has been accepted, and an unwritable one is rejected
 * immediately, so a bad path fails before the simulation instead of
 * after it.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>

#include "harness/system.hh"

namespace fenceless::harness
{

class Options
{
  public:
    /** The option sets a binary can honor; combine them with `|`. */
    enum Set : unsigned
    {
        Jobs = 1u << 0,      //!< --jobs (host-parallel sweeps)
        Machine = 1u << 1,   //!< the machine overlay applyTo() reads
        Artifacts = 1u << 2, //!< trace, stats, flight recorder, watchdog
                             //!< and span outputs (writeArtifacts)
        Profile = 1u << 3,   //!< --profile-out, --waste-report
        SweepJson = 1u << 4, //!< --sweep-json
        ScaleCsv = 1u << 5,  //!< --scale, --csv
    };

    /**
     * Parse argv.  An option outside @p sets is fatal, like an unknown
     * one (typos should not silently run the default experiment);
     * positional arguments are not supported.  `--help` prints the
     * options of @p sets and exits.
     */
    Options(int argc, char **argv, unsigned sets);

    /** Overlay the parsed options onto @p base and return the result. */
    SystemConfig applyTo(SystemConfig base) const;

    bool csv() const { return csv_; }
    unsigned scale() const { return scale_; }

    /**
     * Worker threads for host-parallel sweeps (SweepRunner); 0 means
     * "pick the hardware concurrency".  Output is byte-identical for
     * every value -- see harness/sweep.hh.
     */
    unsigned jobs() const { return jobs_; }

    /**
     * Path for --sweep-json ("" = not requested): benchmarks that
     * sweep an axis write one JSON object per sweep point, one per
     * line, for fl_report's scaling analysis.
     */
    std::string sweepJson() const { return get("sweep-json"); }

    /** @return true if any profiler output was requested. */
    bool
    profiling() const
    {
        return has("profile-out") || has("waste-report");
    }

    /**
     * Write the artefacts requested from @p sys: --trace-out (Chrome
     * trace-event JSON), --stats-json (stat registry plus snapshots),
     * --blackbox-out (flight-recorder dump), --outliers-out
     * (slowest-request dossiers), then its waste profile (see
     * writeProfile) and the --tail-report table.  A no-op when none
     * was requested.
     * @return false if a requested file could not be opened
     */
    bool writeArtifacts(const System &sys) const;

    /**
     * Write --profile-out (JSON, plus FILE.folded flamegraph stacks)
     * and the --waste-report table on stdout from @p profile.  Sweeps
     * merge their runs' profiles in submission order and pass the
     * merged profile once, which keeps the output identical at any
     * --jobs.
     * @return false if a requested file could not be opened
     */
    bool writeProfile(const prof::Profile &profile) const;

    /**
     * Open @p path, let @p write fill it and, unless @p announce is
     * empty, print @p announce as a line on stderr.
     * @return false, after an error line naming --@p option, if the
     *         file cannot be opened
     */
    static bool writeFile(const std::string &option,
                          const std::string &path,
                          const std::function<void(std::ostream &)> &write,
                          const std::string &announce);

  private:
    bool has(const std::string &name) const
    {
        return values_.count(name) > 0;
    }

    /** Raw string value of an option ("" if absent). */
    std::string get(const std::string &name) const;

    /** Integer value of an option (or @p fallback). */
    std::uint64_t getInt(const std::string &name,
                         std::uint64_t fallback) const;

    std::map<std::string, std::string> values_;
    bool csv_ = false;
    unsigned scale_ = 1;
    unsigned jobs_ = 0;
};

} // namespace fenceless::harness
