#include "mem/network.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace fenceless::mem
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetM: return "GetM";
      case MsgType::PutM: return "PutM";
      case MsgType::PutS: return "PutS";
      case MsgType::PutNoData: return "PutNoData";
      case MsgType::WbClean: return "WbClean";
      case MsgType::Inv: return "Inv";
      case MsgType::FwdGetS: return "FwdGetS";
      case MsgType::FwdGetM: return "FwdGetM";
      case MsgType::Recall: return "Recall";
      case MsgType::DataS: return "DataS";
      case MsgType::DataE: return "DataE";
      case MsgType::DataM: return "DataM";
      case MsgType::PutAck: return "PutAck";
      case MsgType::InvAck: return "InvAck";
      case MsgType::FwdDataAck: return "FwdDataAck";
      case MsgType::FwdNoDataAck: return "FwdNoDataAck";
    }
    return "?";
}

bool
isDirRequest(MsgType t)
{
    switch (t) {
      case MsgType::GetS:
      case MsgType::GetM:
      case MsgType::PutM:
      case MsgType::PutS:
      case MsgType::PutNoData:
        return true;
      default:
        return false;
    }
}

const char *
topologyName(Topology t)
{
    switch (t) {
      case Topology::Crossbar: return "crossbar";
      case Topology::Ring: return "ring";
      case Topology::Mesh: return "mesh";
    }
    return "?";
}

bool
parseTopology(const std::string &s, Topology &out)
{
    if (s == "crossbar") {
        out = Topology::Crossbar;
    } else if (s == "ring") {
        out = Topology::Ring;
    } else if (s == "mesh") {
        out = Topology::Mesh;
    } else {
        return false;
    }
    return true;
}

MeshDims
meshDims(std::uint32_t n)
{
    MeshDims d;
    if (n == 0)
        return d;
    d.w = 1;
    while (d.w * d.w < n)
        ++d.w;
    d.h = (n + d.w - 1) / d.w;
    return d;
}

std::uint32_t
routerSlots(Topology t, std::uint32_t n)
{
    if (t != Topology::Mesh)
        return n;
    const MeshDims d = meshDims(n);
    return d.w * d.h;
}

std::uint32_t
ringHops(std::uint32_t n, NodeId s, NodeId d)
{
    const std::uint32_t cw = (d + n - s) % n;
    return std::min(cw, n - cw);
}

bool
ringClockwise(std::uint32_t n, NodeId s, NodeId d)
{
    // Shorter direction; clockwise (increasing id) on ties, so the
    // route -- and with it the link-occupancy accounting -- is a fixed
    // function of (s, d) with no arbitration state.
    const std::uint32_t cw = (d + n - s) % n;
    return cw <= n - cw;
}

std::uint32_t
meshHops(std::uint32_t n, NodeId s, NodeId d)
{
    return gridDistance(meshDims(n).w, s, d);
}

std::string
linkName(Topology t, std::uint32_t link_id)
{
    static const char *const mesh_dirs[4] = {"+x", "-x", "+y", "-y"};
    static const char *const ring_dirs[4] = {"cw", "ccw", "?", "?"};
    std::ostringstream os;
    os << "rtr" << (link_id / 4) << '.'
       << (t == Topology::Ring ? ring_dirs[link_id % 4]
                               : mesh_dirs[link_id % 4]);
    return os.str();
}

std::string
Msg::toString() const
{
    std::ostringstream os;
    os << msgTypeName(type) << " " << src << "->" << dst << " blk=0x"
       << std::hex << block_addr << std::dec
       << (hasData() ? " +data" : "");
    return os.str();
}

Network::Network(sim::SimContext &ctx, const std::string &name,
                 const Params &params, std::uint32_t num_nodes)
    : ctx_(ctx), stats_(ctx.stats.createGroup(name)), params_(params),
      num_nodes_(num_nodes), nodes_(num_nodes),
      stat_msgs_(statGroup().addScalar("msgs", "messages delivered")),
      stat_bytes_(statGroup().addScalar("bytes", "bytes delivered")),
      stat_data_msgs_(statGroup().addScalar("data_msgs",
                                            "data-carrying messages")),
      stat_ctrl_msgs_(statGroup().addScalar("ctrl_msgs",
                                            "control messages")),
      stat_dropped_(statGroup().addScalar("dropped_msgs",
          "messages discarded by fault injection (drop_fwd_acks_for)")),
      stat_hops_(statGroup().addScalar("hops",
          "links crossed, summed over all messages (crossbar: 1 each)")),
      stat_links_used_(statGroup().addScalar("links_used",
          "directed links that carried at least one message "
          "(ring/mesh only)")),
      stat_hot_link_msgs_(statGroup().addScalar("hot_link_msgs",
          "messages over the busiest directed link (ring/mesh only)")),
      stat_hot_link_busy_(statGroup().addScalar("hot_link_busy",
          "serialization cycles charged to the busiest directed link "
          "(ring/mesh only)")),
      stat_msg_latency_(statGroup().addDistribution("msg_latency",
          "cycles from send to delivery (route latency + serialization "
          "+ channel backpressure)"))
{
    flAssert(params_.link_bytes_per_cycle > 0,
             "network link bandwidth must be positive");
    flAssert(num_nodes_ <= max_endpoints, num_nodes_,
             " endpoints exceed the ", max_endpoints,
             " the delivery order encodes");
    if (params_.topology != Topology::Crossbar) {
        flAssert(num_nodes_ >= 2, topologyName(params_.topology),
                 " topology needs at least 2 endpoints (got ",
                 num_nodes_, ")");
        flAssert(params_.hop_latency > 0,
                 "per-hop latency must be positive");
        mesh_w_ = meshDims(num_nodes_).w;
    }
}

void
Network::registerEndpoint(NodeId id, MsgReceiver *receiver)
{
    flAssert(id < num_nodes_, "endpoint ", id, " outside the ",
             num_nodes_, "-endpoint network");
    flAssert(!nodes_[id].receiver, "endpoint ", id,
             " already registered");
    nodes_[id].receiver = receiver;
}

void
Network::send(Msg msg)
{
    flAssert(msg.src < num_nodes_ && msg.dst < num_nodes_ &&
                 nodes_[msg.dst].receiver,
             "message ", msg.src, "->", msg.dst,
             " to an unregistered endpoint of the ", num_nodes_,
             "-endpoint network");
    Node &src = nodes_[msg.src];

    // Fault injection (tests only): swallow the owner's probe response
    // before it touches channel state, wedging the directory's forward
    // phase exactly as a lost message would.
    if ((msg.type == MsgType::FwdDataAck ||
         msg.type == MsgType::FwdNoDataAck) &&
        std::find(params_.drop_fwd_acks_for.begin(),
                  params_.drop_fwd_acks_for.end(),
                  msg.block_addr) != params_.drop_fwd_acks_for.end()) {
        ++stat_dropped_;
        return;
    }

    msg.sent_tick = ctx_.curTick();

    const Cycles serialization =
        (msg.sizeBytes() + params_.link_bytes_per_cycle - 1)
        / params_.link_bytes_per_cycle;

    Tick route_latency = params_.latency;
    std::uint32_t hops = 1;
    if (params_.topology != Topology::Crossbar) {
        hops = routeHops(msg.src, msg.dst);
        route_latency = static_cast<Tick>(hops) * params_.hop_latency;
    }
    msg.hops = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(hops, 255));

    if (src.chans.size() <= msg.dst)
        src.chans.resize(msg.dst + 1);
    TxChan &ch = src.chans[msg.dst];
    Tick arrival = msg.sent_tick + route_latency + serialization;
    // Preserve per-channel FIFO order and serialize on link bandwidth.
    if (arrival <= ch.last_arrival)
        arrival = ch.last_arrival + serialization;
    ch.last_arrival = arrival;
    ++ch.sent;
    // Link occupancy: charged to the channel here, spread over its
    // route's links only when the totals are read (foldLinks).
    ch.busy += serialization;

    ++stat_msgs_;
    stat_bytes_ += msg.sizeBytes();
    stat_hops_ += hops;
    if (msg.hasData())
        ++stat_data_msgs_;
    else
        ++stat_ctrl_msgs_;

    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.push_back(msg);
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slab_[slot] = msg;
    }
    ctx_.eventq.scheduleOneShot(
        arrival, [this, slot] { deliver(slot); },
        delivery_prio_base +
            static_cast<int>(msg.dst * max_endpoints + msg.src));
}

void
Network::deliver(std::uint32_t slot)
{
    // A copy: receiveMsg may send() into this very slot.
    const Msg msg = slab_[slot];
    free_slots_.push_back(slot);

    stat_msg_latency_.sample(
        static_cast<double>(ctx_.curTick() - msg.sent_tick));
    ++nodes_[msg.src].chans[msg.dst].delivered;
    nodes_[msg.dst].receiver->receiveMsg(msg);
}

std::uint32_t
Network::routeHops(NodeId s, NodeId d) const
{
    return params_.topology == Topology::Ring
               ? ringHops(num_nodes_, s, d)
               : gridDistance(mesh_w_, s, d);
}

void
Network::foldLinks(std::vector<std::uint64_t> &msgs,
                   std::vector<std::uint64_t> &busy) const
{
    const std::size_t nlinks =
        static_cast<std::size_t>(routerSlots(params_.topology,
                                             num_nodes_)) * 4;
    msgs.assign(nlinks, 0);
    busy.assign(nlinks, 0);
    for (NodeId s = 0; s < nodes_.size(); ++s) {
        const std::vector<TxChan> &chans = nodes_[s].chans;
        for (NodeId d = 0; d < chans.size(); ++d) {
            const TxChan &ch = chans[d];
            if (ch.sent == 0)
                continue;
            forEachRouteLink(params_.topology, num_nodes_, s, d,
                             [&](std::uint32_t link) {
                                 msgs[link] += ch.sent;
                                 busy[link] += ch.busy;
                             });
        }
    }
}

std::vector<std::uint64_t>
Network::foldedLinkMsgs() const
{
    std::vector<std::uint64_t> lmsgs, lbusy;
    if (params_.topology != Topology::Crossbar)
        foldLinks(lmsgs, lbusy);
    return lmsgs;
}

void
Network::foldLinkStats()
{
    if (params_.topology == Topology::Crossbar)
        return;
    std::vector<std::uint64_t> lmsgs, lbusy;
    foldLinks(lmsgs, lbusy);
    std::uint64_t used = 0, hot_msgs = 0, hot_busy = 0;
    for (std::size_t l = 0; l < lmsgs.size(); ++l) {
        if (lmsgs[l] == 0)
            continue;
        ++used;
        hot_msgs = std::max(hot_msgs, lmsgs[l]);
        hot_busy = std::max(hot_busy, lbusy[l]);
    }
    stat_links_used_ = used;
    stat_hot_link_msgs_ = hot_msgs;
    stat_hot_link_busy_ = hot_busy;
}

} // namespace fenceless::mem
