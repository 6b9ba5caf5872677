/**
 * @file
 * Structured binary event tracing with a Chrome trace-event exporter.
 *
 * The TraceSink records *typed* binary events (tick, component id,
 * event kind, two payload words) into chunked in-memory buffers, and
 * converts them on demand to Chrome trace-event / Perfetto JSON
 * (`--trace-out=run.json`, open in `ui.perfetto.dev`): per-core
 * duration events for speculation epochs and stall intervals, instant
 * events for rollbacks (with cause) and message arrivals, and counter
 * events for instruction commit and store-buffer occupancy.  A
 * request's path through the memory system comes from the sampled
 * request spans (sim/reqtrace.hh), which the export draws as stage
 * slices chained by flow arrows.  Tracing is one switch: on, the sink
 * records every kind.  The same sink keeps the flight
 * recorder (sim/blackbox.hh): one fixed ring per component, allocated
 * (and left unwritten) when the component registers.
 *
 * Each component registers itself once, when it is built, and records
 * only what happened to it, on its own track; registration order is id
 * order, which numbers the timeline tracks and orders the
 * flight-recorder dump.
 *
 * Concurrency / cost model:
 *  - One sink per sim::SimContext -- i.e. per simulated system -- and a
 *    system runs on exactly one host thread, so the hot path is a plain
 *    bounds-checked append: no locks, no atomics, safe under
 *    `SweepRunner --jobs=N` because sinks share nothing.  Dumps order
 *    records canonically (sortCanonical).
 *  - Disabled tracing costs one inline mask test (the FL_TEVENT
 *    macro); nothing is evaluated or stored.
 *  - Recording is capped (default 4M events, ~128 MiB) so a runaway
 *    run degrades to counting drops instead of eating the host.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "base/no_init_allocator.hh"
#include "base/types.hh"

namespace fenceless::reqtrace
{
struct SpanSet;
} // namespace fenceless::reqtrace

namespace fenceless::trace
{

/**
 * Every kind of structured event the simulator records.  The exporter
 * knows each kind's Chrome phase (duration / instant / counter) and how
 * to decode its payload words.  A request's path through the memory
 * system is not a kind: the export draws it from the assembled request
 * spans (sim/reqtrace.hh).
 */
enum class EventKind : std::uint16_t
{
    CoreCommit,   //!< counter: a0 = instructions retired so far
    CoreStall,    //!< duration: a0 = begin tick, aux = StallReason id
    SpecEpoch,    //!< duration: a0 = begin tick, a1 = insts, aux = outcome
    SpecRollback, //!< instant: a1 = discarded insts, aux = cause id
    SbOccupancy,  //!< counter: a0 = entries buffered, on the core's track
    NetHop,       //!< instant, on the receiving L1's or bank's track: a
                  //!< message arrived; a0 = req id, a1 = latency,
                  //!< aux = msg type
    NumKinds,
};

const char *eventKindName(EventKind k);

/** The mask bit of @p k (constexpr: FL_TEVENT passes a literal kind). */
constexpr std::uint32_t
kindBit(EventKind k)
{
    return 1u << static_cast<unsigned>(k);
}

/** Every kind: what a full trace records. */
inline constexpr std::uint32_t all_kinds =
    kindBit(EventKind::NumKinds) - 1;

/**
 * What the flight recorder keeps: every kind but the per-instruction
 * commit counter.  CoreCommit fires once per retired instruction, so
 * recording it would put a ring store on the single hottest path in
 * the simulator; the kinds that matter for incident forensics fire
 * orders of magnitude less often, which keeps the always-on recorder
 * within its full-system budget.
 */
inline constexpr std::uint32_t ring_kinds =
    all_kinds & ~kindBit(EventKind::CoreCommit);

/** One recorded event.  32 bytes, trivially copyable. */
struct TraceRecord
{
    Tick tick;
    std::uint64_t a0;
    std::uint64_t a1;
    std::uint16_t comp;
    std::uint16_t kind;
    std::uint32_t aux;
};

static_assert(sizeof(TraceRecord) == 32, "keep trace records compact");
static_assert(std::is_trivially_default_constructible_v<TraceRecord>,
              "flight-recorder rings are allocated unwritten");

class TraceSink
{
  public:
    static constexpr std::size_t chunk_records = 1u << 16;
    static constexpr std::size_t default_cap = 4u << 20;

    explicit TraceSink(std::size_t max_records = default_cap)
        : max_records_(max_records)
    {}

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    // --- configuration ---------------------------------------------------

    /** Record every kind into the full trace, or nothing (the default). */
    void setEnabled(bool on) { mask_ = on ? all_kinds : 0; }

    /** @return true if the full trace is recording. */
    bool enabled() const { return mask_ != 0; }

    /**
     * Configure the flight recorder: the last @p records_per_comp
     * events (of the ring_kinds) of every component are kept in that
     * component's fixed ring and survive until dumped -- the
     * incident evidence for stall dossiers and panic dumps (see
     * sim/blackbox.hh).  The capacity is rounded up to a power of two;
     * 0 disables the rings.  Resizes (and empties) the rings of the
     * components already registered; a component registered later gets
     * its ring at registration, so either order works.
     */
    void configureRing(std::size_t records_per_comp);

    std::size_t ringCapacity() const { return ring_capacity_; }

    /** Total events ever pushed into the rings (across components). */
    std::uint64_t
    ringPushes() const
    {
        std::uint64_t pushes = 0;
        for (const Ring &ring : rings_)
            pushes += ring.head;
        return pushes;
    }

    /** @return true if events of kind @p k should be recorded. */
    bool
    wants(EventKind k) const
    {
        return ((mask_ | ring_mask_) & kindBit(k)) != 0;
    }

    // --- component identity ----------------------------------------------

    /**
     * Register a component and allocate its flight-recorder ring; the
     * returned id (registration order) names its timeline track.  Each
     * component registers once, when it is built.
     */
    std::uint16_t registerComponent(const std::string &name);

    const std::vector<std::string> &components() const
    {
        return components_;
    }

    /**
     * Map integer aux payloads of @p kind to printable names (e.g.
     * StallReason ids); the exporter uses them for event args.  A
     * system registers each table once, before building the components
     * that record the kind.
     */
    void setAuxNames(EventKind kind, std::vector<std::string> names);

    /** @return the registered name for (kind, aux), or "" if none. */
    const std::string &auxName(EventKind kind, std::uint32_t aux) const;

    // --- recording (hot path) --------------------------------------------

    /**
     * Append one event.  Call through FL_TEVENT, not directly.  The
     * event goes to the flight-recorder ring, the full chunked trace,
     * or both, depending on which mask wants its kind: wants() gates on
     * the union, so this re-checks each destination.
     */
    void
    record(std::uint16_t comp, EventKind kind, Tick tick,
           std::uint64_t a0 = 0, std::uint64_t a1 = 0,
           std::uint32_t aux = 0)
    {
        const std::uint32_t bit = kindBit(kind);
        if (ring_mask_ & bit) {
            // Ring write: one indexed store and one head bump.  This
            // is the always-on flight-recorder hot path; keep it
            // branch-light (capacity is a power of two).
            Ring &ring = rings_[comp];
            ring.slots[ring.head & (ring_capacity_ - 1)] =
                TraceRecord{tick, a0, a1, comp,
                            static_cast<std::uint16_t>(kind), aux};
            ++ring.head;
        }
        if (!(mask_ & bit))
            return;
        if (size_ >= max_records_) {
            ++dropped_;
            return;
        }
        if (chunks_.empty() || chunks_.back().size() == chunk_records)
            addChunk();
        chunks_.back().push_back(
            TraceRecord{tick, a0, a1, comp,
                        static_cast<std::uint16_t>(kind), aux});
        ++size_;
    }

    // --- inspection / export ---------------------------------------------

    std::size_t size() const { return size_; }
    std::uint64_t dropped() const { return dropped_; }

    /** Visit every record in recording order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &chunk : chunks_)
            for (const TraceRecord &r : chunk)
                fn(r);
    }

    /**
     * Visit component @p comp's ring records, oldest to newest.  Only
     * written slots are visited, so a short run yields fewer than
     * ringCapacity() records.
     */
    template <typename Fn>
    void
    forEachRingRecord(std::uint16_t comp, Fn fn) const
    {
        if (ring_capacity_ == 0 || comp >= rings_.size())
            return;
        const Ring &ring = rings_[comp];
        const std::uint64_t count = std::min<std::uint64_t>(
            ring.head, static_cast<std::uint64_t>(ring_capacity_));
        for (std::uint64_t i = ring.head - count; i < ring.head; ++i)
            fn(ring.slots[i & (ring_capacity_ - 1)]);
    }

    /** Discard all recorded events (identity registrations survive). */
    void clear();

    /**
     * Write @p records -- the canonically ordered full trace or the
     * merged flight-recorder rings -- and the request spans of @p spans
     * (empty for a flight-recorder dump) as a Chrome trace-event JSON
     * object (`{"traceEvents": [...]}`), loadable by chrome://tracing
     * and ui.perfetto.dev, using this sink's component and aux-name
     * registrations for identity.  Ticks are exported as microseconds
     * 1:1.  A non-zero @p dropped is reported as a metadata event; a
     * non-empty @p provenance_json (see base/provenance.hh) is embedded
     * as a top-level "provenance" key.
     */
    void exportChromeJson(std::ostream &os,
                          const std::vector<TraceRecord> &records,
                          const reqtrace::SpanSet &spans,
                          std::uint64_t dropped,
                          const std::string &provenance_json) const;

  private:
    void addChunk();

    std::uint32_t mask_ = 0; //!< all_kinds, or 0 when off
    std::size_t max_records_;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<std::vector<TraceRecord>> chunks_;
    std::vector<std::string> components_;
    std::vector<std::vector<std::string>> aux_names_;

    /**
     * One component's flight-recorder ring.  Its slots start
     * unwritten: only the head's pushes are ever read back.
     */
    struct Ring
    {
        using Slots =
            std::vector<TraceRecord, NoInitAllocator<TraceRecord>>;
        Slots slots;            //!< ring_capacity_ of them
        std::uint64_t head = 0; //!< events ever pushed
    };

    std::uint32_t ring_mask_ = 0;   //!< ring_kinds, or 0 when off
    std::size_t ring_capacity_ = 0; //!< slots per component (power of 2)
    std::vector<Ring> rings_;       //!< indexed by component id
};

/**
 * Put @p records in the canonical dump order shared by the full trace
 * and the flight recorder: by tick, then by component id, each
 * component's records keeping their recording order -- a pure function
 * of the simulated timing, whatever order components ran in.
 */
void sortCanonical(std::vector<TraceRecord> &records);

} // namespace fenceless::trace

/**
 * Record a structured trace event on @p obj's own track: every live
 * record goes through here.  @p obj must provide tracer(), traceId()
 * and curTick() (every SimObject does).  The payload arguments are not
 * evaluated unless the trace or the flight recorder wants @p kind.
 */
#define FL_TEVENT(obj, kind, ...)                                      \
    do {                                                               \
        if ((obj).tracer().wants(kind)) {                              \
            (obj).tracer().record((obj).traceId(), kind,               \
                                  (obj).curTick(), ##__VA_ARGS__);     \
        }                                                              \
    } while (0)
