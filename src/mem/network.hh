/**
 * @file
 * The on-chip interconnect model.
 *
 * A topology layer connects the L1 controllers and the directory
 * bank(s).  Three topologies are supported:
 *
 *  - Crossbar (default): the legacy star -- every message pays the
 *    same `latency`, regardless of endpoints.
 *  - Ring: nodes 0..N-1 on a bidirectional ring; a message takes the
 *    shorter direction (clockwise on ties -- a fixed, deterministic
 *    tie-break) and pays `hop_latency` per link crossed.
 *  - Mesh: nodes laid out row-major on a ceil(sqrt(N))-wide 2D grid
 *    with deterministic XY (x-first) dimension-ordered routing;
 *    `hop_latency` per link.
 *
 * Each (src, dst) channel is a FIFO: a message arrives
 * max(now + route_latency, channel_last_arrival + serialization)
 * cycles later, where route_latency is `latency` (crossbar) or
 * hops * `hop_latency` (ring/mesh) and serialization =
 * ceil(bytes / link_bytes_per_cycle) models link bandwidth.  FIFO
 * order per channel is a protocol requirement.
 *
 * Link occupancy is modeled as per-channel accounting: every message
 * charges its serialization cycles to its sender-owned (src, dst)
 * channel, and finalizeStats() spreads each channel's totals over the
 * channel's fixed route once (hop totals, hot-link occupancy).  Routes
 * are pure functions of (src, dst), so the per-link sums equal a
 * per-message walk without costing one on every send.  Shared-link
 * *timing* contention is deliberately not modeled: arrival times must
 * be a pure function of sender-owned channel state so that a sharded
 * run stays byte-identical to the single-threaded reference without
 * cross-thread synchronization on every send (see below).
 *
 * The network is also the simulator's only cross-shard edge when the
 * System is sharded across host threads (--shards=N), so delivery is
 * built around a *canonical per-destination ingress*: every node owns a
 * min-heap of pending arrivals ordered by (arrival tick, source node,
 * per-channel sequence) -- a total order whose keys are computed
 * entirely at send time -- drained by one event on the destination
 * node's shard queue.  Same-shard sends enqueue directly; cross-shard
 * sends travel through the System's mailboxes and are enqueued at the
 * next quantum boundary, which the lookahead (quantum <= latency + 1)
 * guarantees still precedes the arrival tick.  Delivery order at every
 * node is therefore a pure function of the message timing, identical
 * whether the simulation runs on one host thread or eight.
 *
 * Stats follow the same discipline: each node accumulates its own tx
 * counters and rx latency moments (touched only by its shard's
 * thread), and finalizeStats() folds them into the legacy "network"
 * stat group in node order at end of run -- deterministic and
 * lock-free in every mode.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/msg.hh"
#include "sim/sim_object.hh"

namespace fenceless::mem
{

/** Anything that can receive coherence messages from the network. */
class MsgReceiver
{
  public:
    virtual ~MsgReceiver() = default;
    virtual void receiveMsg(const Msg &msg) = 0;
};

/** Interconnect topology (see the file comment). */
enum class Topology : std::uint8_t
{
    Crossbar, //!< flat star: uniform latency (the legacy model)
    Ring,     //!< bidirectional ring, shortest direction, cw on ties
    Mesh,     //!< 2D mesh, XY dimension-ordered routing
};

/** @return the printable name of a topology. */
const char *topologyName(Topology t);

/** Parse "crossbar" / "ring" / "mesh". @return false on anything else. */
bool parseTopology(const std::string &s, Topology &out);

/** Row-major 2D mesh geometry for @p n nodes: w = ceil(sqrt(n)). */
struct MeshDims
{
    std::uint32_t w = 0;
    std::uint32_t h = 0;
};
MeshDims meshDims(std::uint32_t n);

/**
 * Router slots the topology routes through: @p n for the ring, the
 * full w x h grid for the mesh -- XY routes legally cross the empty
 * slots of a partially-filled last row, and those routers own links
 * too.  Sizes the per-link occupancy arrays (4 links per slot).
 */
std::uint32_t routerSlots(Topology t, std::uint32_t n);

/** Ring distance s -> d over @p n nodes (shorter direction). */
std::uint32_t ringHops(std::uint32_t n, NodeId s, NodeId d);

/** @return true if the ring route s -> d goes clockwise (id + 1). */
bool ringClockwise(std::uint32_t n, NodeId s, NodeId d);

/** Manhattan distance between @p s and @p d on a @p w-wide grid. */
inline std::uint32_t
gridDistance(std::uint32_t w, NodeId s, NodeId d)
{
    const std::uint32_t sx = s % w, sy = s / w;
    const std::uint32_t dx = d % w, dy = d / w;
    return (sx > dx ? sx - dx : dx - sx) + (sy > dy ? sy - dy : dy - sy);
}

/** Manhattan distance on the @p n-node mesh (XY routing length). */
std::uint32_t meshHops(std::uint32_t n, NodeId s, NodeId d);

/**
 * Directed links are identified as `node * 4 + direction`, direction
 * 0 = +x / clockwise, 1 = -x / counter-clockwise, 2 = +y, 3 = -y.
 * Visit each link id on the (deterministic) route s -> d in order.
 * The crossbar has no modeled links; the visitor is never called.
 */
template <typename Fn>
void
forEachRouteLink(Topology t, std::uint32_t n, NodeId s, NodeId d, Fn &&fn)
{
    if (t == Topology::Crossbar || s == d)
        return;
    if (t == Topology::Ring) {
        const bool cw = ringClockwise(n, s, d);
        for (NodeId at = s; at != d;) {
            fn(at * 4 + (cw ? 0u : 1u));
            at = cw ? (at + 1) % n : (at + n - 1) % n;
        }
        return;
    }
    // Mesh: XY routing -- walk out the x offset first, then y.  The
    // intermediate grid slots need not host an endpoint (the last mesh
    // row may be partially filled); they are routers either way.
    const std::uint32_t w = meshDims(n).w;
    std::uint32_t x = s % w, y = s / w;
    const std::uint32_t dx = d % w, dy = d / w;
    while (x != dx) {
        const bool east = x < dx;
        fn((y * w + x) * 4 + (east ? 0u : 1u));
        x += east ? 1 : -1;
    }
    while (y != dy) {
        const bool north = y < dy;
        fn((y * w + x) * 4 + (north ? 2u : 3u));
        y += north ? 1 : -1;
    }
}

/**
 * Human-readable name for a directed link id: "rtr<slot>.<dir>" where
 * dir is +x/-x/+y/-y on the mesh and cw/ccw on the ring.  Used by the
 * tail-latency dossiers to name a request's hottest link.
 */
std::string linkName(Topology t, std::uint32_t link_id);

class Network : public sim::SimObject
{
  public:
    struct Params
    {
        Topology topology = Topology::Crossbar;
        Cycles latency = 8;     //!< crossbar traversal latency
        Cycles hop_latency = 3; //!< per-link latency (ring/mesh)
        /**
         * Endpoint count, fixing the ring circumference / mesh
         * dimensions.  Required (>= 2) for ring and mesh; the crossbar
         * ignores it and grows its node table on demand.
         */
        std::uint32_t num_nodes = 0;
        std::uint32_t link_bytes_per_cycle = 16;

        /**
         * The minimum cross-node delay this topology can produce: one
         * route of minimal length plus the >= 1 serialization cycle
         * every message pays.  The sharded driver's lookahead (see
         * harness/system.hh) must not exceed this.
         */
        Tick
        minDelay() const
        {
            return static_cast<Tick>(topology == Topology::Crossbar
                                         ? latency
                                         : hop_latency) + 1;
        }
        /**
         * Fault injection: silently drop FwdDataAck/FwdNoDataAck
         * messages for these block addresses.  The owner believes it
         * answered the probe; the directory transaction waits forever
         * -- a deterministic, protocol-shaped deadlock used to test the
         * hang watchdog and wait-for-graph dossiers.  Empty in any
         * honest configuration.
         */
        std::vector<Addr> drop_fwd_acks_for;
    };

    /**
     * A message en route to its destination's ingress heap, keyed for
     * the canonical delivery order.  chan_seq is the (src, dst)
     * channel's send sequence; per-channel arrivals strictly increase,
     * so (arrival, src, chan_seq) is a strict total order per node.
     */
    struct PendingMsg
    {
        Msg msg;
        Tick arrival = 0;
        std::uint64_t chan_seq = 0;
    };

    Network(sim::SimContext &ctx, const std::string &name,
            const Params &params);

    /**
     * Pending ingress events are owned by the network; an aborted run
     * (watchdog, cycle budget) leaves them scheduled, so pull them off
     * their queues before the Event destructor asserts.
     */
    ~Network() override;

    /**
     * Declare which shard context delivers to endpoint @p id.  Must be
     * called before the endpoint registers.  Never calling it leaves
     * every node on the network's own context (shard 0) -- the
     * single-threaded default used by protocol unit tests.
     */
    void bindNode(NodeId id, sim::SimContext &ctx, std::uint32_t shard);

    /**
     * Route for cross-shard sends: invoked as (src_shard, dst_shard,
     * pending) when a message's source and destination live on
     * different shards.  The System points this at its mailbox grid;
     * the receiver re-injects via enqueueArrival() at the next quantum
     * boundary.
     */
    using CrossShardPush =
        std::function<void(std::uint32_t, std::uint32_t, PendingMsg &&)>;
    void setCrossShardPush(CrossShardPush push)
    {
        cross_push_ = std::move(push);
    }

    /** Attach the receiver for endpoint @p id. */
    void registerEndpoint(NodeId id, MsgReceiver *receiver);

    /** Send a message; delivery is scheduled on the dst shard's queue. */
    void send(Msg msg);

    /**
     * Push a pending message into its destination's ingress heap and
     * (re)arm the ingress event.  Called by send() for same-shard
     * traffic and by the System's mailbox drain for cross-shard
     * traffic; must run on the destination shard's thread with the
     * arrival tick still in that queue's future.
     */
    void enqueueArrival(PendingMsg &&pm);

    /**
     * Fold the per-node counters into the "network" stat group (node
     * order, idempotent).  The System calls this once at end of run in
     * every mode; until then the group's scalars read zero.
     */
    void finalizeStats();

    // --- stall-dossier inspection ---------------------------------------

    struct Channel
    {
        Tick last_arrival = 0;
        std::uint64_t in_flight = 0; //!< sent, not yet delivered
    };

    /** Visit every channel that has ever carried a message. */
    template <typename Fn>
    void
    forEachChannel(Fn fn) const
    {
        for (NodeId s = 0; s < nodes_.size(); ++s) {
            const Node &src = nodes_[s];
            for (NodeId d = 0; d < src.chans.size(); ++d) {
                const TxChan &ch = src.chans[d];
                if (ch.sent == 0)
                    continue;
                std::uint64_t delivered = 0;
                if (d < nodes_.size() &&
                    s < nodes_[d].delivered_from.size()) {
                    delivered = nodes_[d].delivered_from[s];
                }
                fn(s, d, Channel{ch.last_arrival, ch.sent - delivered});
            }
        }
    }

    /** The topology (dossiers reconstruct routes from it). */
    Topology topology() const { return params_.topology; }

    /**
     * Per-link message totals (indexed by link id; empty on the
     * crossbar): every channel's count spread over its route, as in
     * finalizeStats(), so the result is shard-independent; callable at
     * any point (end-of-run reports use it to name each sampled
     * request's hottest link).
     */
    std::vector<std::uint64_t> foldedLinkMsgs() const;

    /** Fault-injected drops so far (see Params::drop_fwd_acks_for). */
    std::uint64_t
    droppedMsgs() const
    {
        std::uint64_t total = 0;
        for (const Node &n : nodes_)
            total += n.tx_dropped;
        return total;
    }

  private:
    /**
     * A pending arrival's place in its destination's ingress heap: the
     * (arrival, src, chan_seq) ordering key plus the slab slot holding
     * the message, so heap operations move 24 bytes, not a payload.
     */
    struct Arrival
    {
        Tick tick = 0;
        NodeId src = 0;
        std::uint32_t slot = 0; //!< index into Node::slab
        std::uint64_t chan_seq = 0;
    };

    /** Max-heap comparator yielding an (arrival, src, chan_seq) min-heap. */
    struct ArrivalLater
    {
        bool
        operator()(const Arrival &a, const Arrival &b) const
        {
            if (a.tick != b.tick)
                return a.tick > b.tick;
            if (a.src != b.src)
                return a.src > b.src;
            return a.chan_seq > b.chan_seq;
        }
    };

    /** One FIFO channel's send-side state. */
    struct TxChan
    {
        Tick last_arrival = 0;
        std::uint64_t seq = 0;  //!< sends so far (becomes chan_seq)
        std::uint64_t sent = 0; //!< == seq; kept separate for clarity
        std::uint64_t busy = 0; //!< serialization cycles sent
    };

    /**
     * Per-node state: the tx counters this node produces as a source
     * and the ingress heap + rx accumulators it owns as a destination.
     * Everything here is touched only by the node's shard thread (the
     * coordinator reads between quanta).
     */
    struct Node
    {
        sim::SimContext *ctx = nullptr; //!< delivery context (shard)
        std::uint32_t shard = 0;
        MsgReceiver *receiver = nullptr;
        std::uint16_t trace_id = 0; //!< "net.rxN" track in ctx's sink

        // tx side (this node as msg.src)
        std::vector<TxChan> chans; //!< indexed by dst
        std::uint64_t tx_msgs = 0;
        std::uint64_t tx_bytes = 0;
        std::uint64_t tx_data_msgs = 0;
        std::uint64_t tx_ctrl_msgs = 0;
        std::uint64_t tx_dropped = 0;
        std::uint64_t tx_hops = 0; //!< links crossed by sent messages

        // rx side (this node as msg.dst)
        std::vector<Arrival> heap; //!< min-heap via ArrivalLater
        std::vector<Msg> slab;     //!< messages of the heap's arrivals
        std::vector<std::uint32_t> free_slots; //!< unused slab slots
        std::unique_ptr<sim::EventFunctionWrapper> ingress_event;
        std::vector<std::uint64_t> delivered_from; //!< per src
        std::uint64_t rx_count = 0; //!< Welford state for msg_latency
        double rx_sum = 0.0;
        double rx_mean = 0.0;
        double rx_m2 = 0.0;
        double rx_min = 0.0;
        double rx_max = 0.0;
        statistics::PercentileSketch rx_sketch;
    };

    /**
     * Ingress events outrank every component event (prio_highest is 0)
     * and each other by node id, so all of a tick's deliveries land --
     * in node order -- before any component logic runs at that tick, a
     * rule that costs nothing and is trivially shard-independent.
     */
    static constexpr int ingress_prio_base = -100000;

    Node &ensureNode(NodeId id);
    void ingressFire(NodeId id);
    void rxSample(Node &n, double v);

    /** Links a message s -> d crosses (ring/mesh only). */
    std::uint32_t routeHops(NodeId s, NodeId d) const;

    /**
     * Spread every channel's message and serialization-cycle totals
     * over its route: per-link sums indexed by link id (ring/mesh).
     */
    void foldLinks(std::vector<std::uint64_t> &msgs,
                   std::vector<std::uint64_t> &busy) const;

    Params params_;
    std::uint32_t mesh_w_ = 0; //!< mesh grid width (mesh only)
    std::vector<Node> nodes_;
    CrossShardPush cross_push_;
    bool finalized_ = false;

    statistics::Scalar &stat_msgs_;
    statistics::Scalar &stat_bytes_;
    statistics::Scalar &stat_data_msgs_;
    statistics::Scalar &stat_ctrl_msgs_;
    statistics::Scalar &stat_dropped_; //!< fault-injected drops
    statistics::Scalar &stat_hops_;    //!< total links crossed
    statistics::Scalar &stat_links_used_;    //!< links with traffic
    statistics::Scalar &stat_hot_link_msgs_; //!< busiest link, msgs
    statistics::Scalar &stat_hot_link_busy_; //!< busiest link, cycles
    statistics::Distribution &stat_msg_latency_;
};

} // namespace fenceless::mem
