/**
 * @file
 * Flight-recorder ("blackbox") dumps.
 *
 * The TraceSink keeps a small always-on ring of the last N structured
 * events per component (see TraceSink::configureRing).  This module is
 * the dump side: it merges the per-component rings into one totally
 * ordered record stream and writes it out two ways.
 *
 * Merge order is *canonical*, not capture order: the order
 * trace::sortCanonical gives the full trace, by tick and then by
 * component id -- a pure function of the simulated timing, whatever
 * order the events were pushed in.
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
