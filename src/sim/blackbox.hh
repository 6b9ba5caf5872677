/**
 * @file
 * Flight-recorder ("blackbox") dumps.
 *
 * The TraceSink keeps a small always-on ring of the last N structured
 * events per component (see TraceSink::configureRing).  This module is
 * the dump side: it merges the per-component rings into one totally
 * ordered record stream and writes it out two ways.
 *
 * Merge order is *canonical*, not capture order: records are gathered
 * per component (in global component-id order) and stable-sorted by
 * tick.  Per-component ring order is already tick-monotone, so the
 * result is a proper time merge in which same-tick records from
 * different components appear in component-id order -- a pure function
 * of the simulated timing, whatever order the events were pushed in.
 *
 * The two output forms:
 *
 *  - writeBlackboxJson(): the merged tail in the exact Chrome
 *    trace-event format `--trace-out` produces, so an incident dump
 *    loads in ui.perfetto.dev and replays through the same tooling as
 *    a full trace.
 *  - writeBlackboxTail(): a human-readable per-component tail for
 *    terminals and dossiers -- the last few events of every component
 *    with decoded payloads.
 *
 * Dumps happen on assert/panic, postcondition failure, watchdog abort,
 * or on demand (`--blackbox-out`); see harness::System.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/trace_sink.hh"

namespace fenceless::trace
{

/**
 * Default ring mask: everything except per-instruction commit counters.
 * CoreCommit fires once per retired instruction -- recording it would
 * put a ring store on the single hottest path in the simulator; the
 * stall, speculation, store-buffer and message-arrival kinds that
 * matter for incident forensics fire orders of magnitude less often,
 * which is how the always-on recorder stays within its <=3%
 * full-system budget.
 */
inline constexpr std::uint32_t default_blackbox_flags =
    static_cast<std::uint32_t>(Flag::All) &
    ~static_cast<std::uint32_t>(Flag::Core);

/**
 * The flight-recorder contents as one canonically ordered stream (see
 * the file comment for the merge rule).
 */
std::vector<TraceRecord> blackboxRecords(const TraceSink &sink);

/**
 * Write the merged ring tail as a Chrome trace-event JSON document --
 * the same format as TraceSink::exportChromeJson, so the dump is a
 * valid `--trace-out` file.  @p provenance_json (may be empty) is
 * embedded as a top-level "provenance" key.
 */
void writeBlackboxJson(std::ostream &os, const TraceSink &sink,
                       const std::string &provenance_json);

/**
 * Write a human-readable tail: for each component, the last
 * @p per_component ring events with decoded arguments.  Used inside
 * stall dossiers and panic dumps.
 */
void writeBlackboxTail(std::ostream &os, const TraceSink &sink,
                       std::size_t per_component = 8);

} // namespace fenceless::trace
