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
 * charges its serialization cycles to its (src, dst) channel, and
 * foldLinkStats() spreads each channel's totals over the channel's
 * fixed route (links used, hot-link messages and occupancy).  Routes
 * are pure functions of (src, dst), so the per-link sums equal a
 * per-message walk without costing one on every send.  Shared-link
 * *timing* contention is not modeled: arrival times are a pure
 * function of the sending channel's state.
 *
 * Delivery goes through the event queue: send() writes the message
 * once, into a slot of a network-wide slab, and schedules a one-shot
 * at its arrival tick whose priority encodes (destination, source).
 * The queue orders events by (tick, priority, insertion), and a
 * channel's arrivals strictly increase, so every tick delivers in
 * (dst, src) order -- a pure function of the message timing, never of
 * the order in which same-tick sends happened to execute -- and before
 * any component event of that tick.  The delivery hands the receiver a
 * reference to the parked message and frees the slot once the receiver
 * returns.  Receivers send while they run, so the slab grows in fixed
 * chunks that never move.
 *
 * The "network" stat group is live: send() bumps the traffic counters
 * and each delivery samples `msg_latency`.  Only the link stats are
 * folded, whenever foldLinkStats() is called.
 */

#pragma once

#include <cstdint>
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

/**
 * The interconnect.  It owns the "network" stat group but no trace
 * track: every message arrival is recorded by the L1 or bank that
 * receives it.
 */
class Network
{
  public:
    struct Params
    {
        Topology topology = Topology::Crossbar;
        Cycles latency = 8;     //!< crossbar traversal latency
        Cycles hop_latency = 3; //!< per-link latency (ring/mesh)
        std::uint32_t link_bytes_per_cycle = 16;

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
     * A network of @p num_nodes endpoints, ids 0 .. num_nodes - 1; the
     * count fixes the ring circumference and the mesh dimensions.
     */
    Network(sim::SimContext &ctx, const std::string &name,
            const Params &params, std::uint32_t num_nodes);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    statistics::StatGroup &statGroup() { return stats_; }

    /** Attach the receiver for endpoint @p id. */
    void registerEndpoint(NodeId id, MsgReceiver *receiver);

    /**
     * Send a message: a one-shot delivers it at its arrival tick, in
     * the (dst, src) order the file comment describes.
     */
    void send(const Msg &msg);

    /**
     * Spread the per-channel totals over the links into `links_used`,
     * `hot_link_msgs` and `hot_link_busy` (ring/mesh).  Assigns rather
     * than accumulates, so the System calls it at every stats snapshot
     * and at end of run.
     */
    void foldLinkStats();

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
            const std::vector<TxChan> &chans = nodes_[s].chans;
            for (NodeId d = 0; d < chans.size(); ++d) {
                const TxChan &ch = chans[d];
                if (ch.sent != 0)
                    fn(s, d, Channel{ch.last_arrival, ch.sent - ch.delivered});
            }
        }
    }

    /** The topology (dossiers reconstruct routes from it). */
    Topology topology() const { return params_.topology; }

    /**
     * Per-link message totals (indexed by link id; empty on the
     * crossbar): every channel's count spread over its route, as in
     * foldLinkStats(); callable at any point (end-of-run reports use it
     * to name each sampled request's hottest link).
     */
    std::vector<std::uint64_t> foldedLinkMsgs() const;

    /** Fault-injected drops so far (see Params::drop_fwd_acks_for). */
    std::uint64_t droppedMsgs() const { return stat_dropped_.count(); }

  private:
    /** One FIFO channel's state. */
    struct TxChan
    {
        Tick last_arrival = 0;
        std::uint64_t sent = 0;
        std::uint64_t delivered = 0;
        std::uint64_t busy = 0; //!< serialization cycles sent
    };

    struct Node
    {
        MsgReceiver *receiver = nullptr;
        std::vector<TxChan> chans; //!< this node's channels, by dst
    };

    /**
     * Delivery priorities are delivery_prio_base + dst * max_endpoints
     * + src: below every component priority (prio_highest is 0), so all
     * of a tick's deliveries run, in (dst, src) order, before any
     * component logic at that tick.  max_endpoints covers the largest
     * System: 64 cores plus 64 directory banks.
     */
    static constexpr int delivery_prio_base = -100000;
    static constexpr NodeId max_endpoints = 128;

    /** Messages per slab chunk. */
    static constexpr std::uint32_t slab_chunk = 64;

    /** The slab slot @p slot. */
    Msg &
    parked(std::uint32_t slot)
    {
        return slab_[slot / slab_chunk][slot % slab_chunk];
    }

    /** A free slab slot, adding a chunk when none is left. */
    std::uint32_t takeSlot();

    void deliver(std::uint32_t slot);

    /** Links a message s -> d crosses (ring/mesh only). */
    std::uint32_t routeHops(NodeId s, NodeId d) const;

    /**
     * Spread every channel's message and serialization-cycle totals
     * over its route: per-link sums indexed by link id (ring/mesh).
     */
    void foldLinks(std::vector<std::uint64_t> &msgs,
                   std::vector<std::uint64_t> &busy) const;

    sim::SimContext &ctx_;
    statistics::StatGroup &stats_;
    Params params_;
    std::uint32_t num_nodes_;
    std::uint32_t mesh_w_ = 0; //!< mesh grid width (mesh only)
    std::vector<Node> nodes_;  //!< indexed by endpoint id
    /** Messages in flight, in chunks of slab_chunk that never move. */
    std::vector<std::unique_ptr<Msg[]>> slab_;
    std::vector<std::uint32_t> free_slots_; //!< unused slab slots

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
