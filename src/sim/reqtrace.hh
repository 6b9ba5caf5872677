/**
 * @file
 * Per-request span tracing: the tail-latency observability layer.
 *
 * Aggregate latency distributions (PR 2) and percentile sketches
 * (PR 7) can say *that* the p99.9 is bad, but not *why this request*
 * was slow.  This layer records, for a sampled subset of misses, a
 * timestamp at every stage boundary the request crosses on its way
 * through the memory system:
 *
 *     ReqNet   the GetS/GetM leaves the L1 toward the directory bank
 *     DirQueue queued at the bank behind an active same-block txn
 *     DirAccess bank accepted the txn (tag/directory access latency)
 *     Dram     L2 miss: DRAM channel queue + access
 *     DirBlocked waiting behind an L2 victim recall
 *     DirFwd   waiting for the current owner (FwdGetS/FwdGetM round trip)
 *     DirInv   waiting for sharer invalidation acks
 *     ReplyNet the Data* reply is in flight back to the L1
 *     FillWait data arrived at the L1 but cannot install yet
 *     Done     installed; the span ends
 *
 * Stage *durations* are never recorded -- only boundary events.  Each
 * stage's contribution is the interval to the next boundary, so the
 * per-stage cycles of a span tile the end-to-end latency exactly (to
 * the cycle), including fill-retry loops where an Inv/Fwd yanks a
 * buffered fill and the request re-enters ReqNet with the same id.
 *
 * Coalesced accesses that queue behind an existing MSHR are recorded
 * as flagged L1Queue events.  They are not part of the miss's tiled
 * path; span assembly turns each one into its own single-stage
 * "waiter" span [queue tick, fill tick], which is exactly the MSHR
 * wait that request experienced.
 *
 * Sampling must be byte-identical run to run and across --jobs, so it
 * is a pure function of the request id: ids are minted per L1 as
 * (node+1)<<40 | local-miss-sequence (see L1Cache::handleMiss), and a
 * request is sampled iff the splitmix64 hash of its id is at most
 * ~0 / N, a 1-in-N slice tested without a divide.  The components that
 * record stages -- L1s and directory banks -- each re-derive the
 * decision statelessly from msg.req_id.
 *
 * Every stage site records through one hook, FL_SPAN (the span twin
 * of FL_TEVENT), which re-derives the sampling decision from the id.
 *
 * Ownership and threading mirror trace::TraceSink / prof::WasteProfiler:
 * one sink per SimContext, driven by that context's single host
 * thread, so recording needs no locking.  Disabled cost is one period
 * test per stage site, with no payload evaluated.  Span assembly
 * happens once, after the run: events are stable-sorted by (req_id,
 * tick), and any two same-request events at the same tick are
 * recorded by the same component (cross-component transitions ride the
 * network, whose minimum delay is one cycle), so the order is a pure
 * function of the simulated timing.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace fenceless::reqtrace
{

/** The stages a request span can pass through (pipeline order). */
enum class Stage : std::uint8_t
{
    L1Queue,    //!< coalesced access waiting on an existing MSHR
    ReqNet,     //!< GetS/GetM in flight toward the directory bank
    DirQueue,   //!< queued at the bank behind an active txn
    DirAccess,  //!< directory/tag access latency
    Dram,       //!< DRAM channel queue + access (L2 miss)
    DirBlocked, //!< waiting behind an L2 victim recall
    DirFwd,     //!< owner forward round trip (FwdGetS/FwdGetM)
    DirInv,     //!< sharer invalidation fan-out
    ReplyNet,   //!< Data* reply in flight back to the L1
    FillWait,   //!< fill buffered at the L1, not installable yet
    Done,       //!< installed (terminates the span)
    NumStages,
};

constexpr std::size_t num_stages =
    static_cast<std::size_t>(Stage::NumStages);

/** Short stable name ("req_net", "dir_queue", ...). */
const char *stageName(Stage s);

/** Event flags. */
constexpr std::uint8_t span_flag_retry = 1;  //!< re-request after a yank
constexpr std::uint8_t span_flag_waiter = 2; //!< coalesced MSHR waiter

/**
 * One stage-boundary record (32 bytes).  `node` is the recording
 * component's trace id (so exports can target the existing per-
 * component tracks); `a0` carries the block address (ReqNet/Done) and
 * `aux` stage-specific detail (issuing PC for ReqNet, queue depth for
 * DirQueue, ack fan-out for DirInv, waiter count for Done).
 */
struct SpanEvent
{
    std::uint64_t req_id;
    Tick tick;
    std::uint64_t a0;
    std::uint16_t node;
    std::uint8_t stage;
    std::uint8_t flags;
    std::uint32_t aux;
};

/** splitmix64 finalizer: the sampling hash (pure, stateless). */
constexpr std::uint64_t
mixReqId(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Per-SimContext span sink.  configure() before the run; components
 * record through FL_SPAN, which tests sampled() before record().
 */
class ReqTraceSink
{
  public:
    /** Enable with 1-in-@p period sampling (0 disables, 1 = all). */
    void
    configure(std::uint64_t period)
    {
        period_ = period;
        // 1-in-N as a threshold compare on the hash, not a modulo: the
        // predicate runs at every record site of every miss, and a
        // 64-bit divide there is the difference between noise and a
        // measurable overhead (BM_FullSystemReqTrace/64).
        threshold_ = period ? ~0ULL / period : 0;
        events_.clear();
    }

    bool enabled() const { return period_ != 0; }
    std::uint64_t period() const { return period_; }

    /**
     * Pure sampling predicate: true iff @p req_id is traced.  A
     * disabled sink samples nothing, and id 0 (control traffic: Puts,
     * WbClean, probes) is never traced.
     */
    bool
    sampled(std::uint64_t req_id) const
    {
        if (period_ == 0 || req_id == 0)
            return false;
        return mixReqId(req_id) <= threshold_;
    }

    void
    record(std::uint64_t req_id, Tick tick, Stage stage,
           std::uint16_t node, std::uint64_t a0 = 0,
           std::uint32_t aux = 0, std::uint8_t flags = 0)
    {
        events_.push_back(SpanEvent{req_id, tick, a0, node,
                                    static_cast<std::uint8_t>(stage),
                                    flags, aux});
    }

    const std::vector<SpanEvent> &events() const { return events_; }

  private:
    std::uint64_t period_ = 0;
    std::uint64_t threshold_ = 0; //!< sample iff mixReqId(id) <= this
    std::vector<SpanEvent> events_;
};

// ---------------------------------------------------------------------
// post-run span assembly (main thread)
// ---------------------------------------------------------------------

/** One tiled stage of an assembled span. */
struct SpanStage
{
    Stage stage;
    Tick at;            //!< boundary tick (stage entry)
    Tick cycles;        //!< interval to the next boundary
    std::uint16_t node; //!< recording component's trace id
    std::uint32_t aux;
    std::uint8_t flags;
};

/** One assembled request span. */
struct Span
{
    std::uint64_t req_id = 0;
    Tick issue = 0;
    Tick done = 0;
    Addr block = 0;
    std::uint32_t pc = 0;       //!< issuing PC (ReqNet aux)
    std::uint32_t waiters = 0;  //!< coalesced accesses served by the fill
    std::uint32_t retries = 0;  //!< fill yanks (Inv/Fwd re-requests)
    bool waiter = false;        //!< single-stage coalesced-waiter span
    std::vector<SpanStage> stages;

    Tick latency() const { return done - issue; }

    /** Issuing L1's node id (minted into the id's high bits). */
    std::uint32_t
    core() const
    {
        return static_cast<std::uint32_t>(req_id >> 40) - 1;
    }

    /** Per-L1 miss sequence number (the id's low bits). */
    std::uint64_t
    seq() const
    {
        return req_id & ((1ULL << 40) - 1);
    }

    /** The stage owning the most cycles (ties: earliest stage). */
    Stage dominantStage() const;
};

/** Every complete span of a run, in canonical order. */
struct SpanSet
{
    std::uint64_t period = 0;     //!< sampling period used
    std::uint64_t incomplete = 0; //!< sampled spans cut off at run end
    std::vector<Span> spans;      //!< (req_id asc, primary before waiters)
};

/**
 * Assemble raw events into complete spans, in canonical order: see the
 * file comment for the ordering argument.
 */
SpanSet assembleSpans(std::vector<SpanEvent> events,
                      std::uint64_t period);

/** One row of the stage-attribution table. */
struct StageRow
{
    Stage stage;
    std::uint64_t spans = 0;  //!< spans in which the stage appears
    std::uint64_t cycles = 0; //!< total cycles attributed to the stage
    Tick p50 = 0, p95 = 0, p99 = 0, p999 = 0; //!< per-span contribution
    std::uint64_t tail_owned = 0; //!< above-p99 spans this stage dominates
};

/** The critical-path stage attribution of a run's sampled spans. */
struct TailAttribution
{
    std::uint64_t spans = 0;      //!< complete spans folded in
    std::uint64_t tail_spans = 0; //!< spans with latency > e2e p99
    Tick e2e_p50 = 0, e2e_p95 = 0, e2e_p99 = 0, e2e_p999 = 0;
    std::uint64_t e2e_cycles = 0; //!< sum of end-to-end latencies
    std::vector<StageRow> rows;   //!< stage order; stages with spans > 0

    /** Rows ranked by tail ownership (desc), ties by stage order. */
    std::vector<const StageRow *> tailRanking() const;
};

/**
 * Fold @p set into per-stage contribution percentiles and the tail-
 * ownership ranking.  Exact nearest-rank percentiles over the sampled
 * spans (all of them are in memory; no sketch estimation error here).
 */
TailAttribution attributeStages(const SpanSet &set);

/**
 * The top-@p k slowest primary spans, ordered by (latency desc,
 * req_id asc) -- the deterministic outlier-dossier selection.
 */
std::vector<const Span *> topK(const SpanSet &set, std::size_t k);

/** Exact nearest-rank percentile of a sorted sample vector. */
Tick nearestRank(const std::vector<Tick> &sorted, double q);

} // namespace fenceless::reqtrace

/**
 * Record a span stage boundary of request @p req at the current tick,
 * if @p req is sampled.  @p obj must provide spans(), traceId() and
 * curTick() (every SimObject does); the optional payload (a0, aux,
 * flags) is not evaluated unless the request is sampled.
 */
#define FL_SPAN(obj, req, stage, ...)                                  \
    do {                                                               \
        const std::uint64_t fl_span_req_ = (req);                      \
        if ((obj).spans().sampled(fl_span_req_)) {                     \
            (obj).spans().record(fl_span_req_, (obj).curTick(),        \
                                 (stage), (obj).traceId(),             \
                                 ##__VA_ARGS__);                       \
        }                                                              \
    } while (0)
