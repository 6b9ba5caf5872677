/**
 * @file
 * Topology-layer unit tests: ring/mesh geometry and hop counts, the
 * deterministic direction tie-break, the exact link sequences XY and
 * ring routing produce, end-to-end arrival timing through a real
 * Network instance, and the link statistics folded from per-channel
 * totals against per-message route walks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "mem/network.hh"
#include "sim/sim_object.hh"

using namespace fenceless;
using namespace fenceless::mem;

namespace
{

std::vector<std::uint32_t>
routeLinks(Topology t, std::uint32_t n, NodeId s, NodeId d)
{
    std::vector<std::uint32_t> links;
    forEachRouteLink(t, n, s, d,
                     [&](std::uint32_t link) { links.push_back(link); });
    return links;
}

/** Records each delivered message and its arrival tick. */
class RecordingEndpoint : public MsgReceiver
{
  public:
    explicit RecordingEndpoint(sim::SimContext &ctx) : ctx_(ctx) {}

    void
    receiveMsg(const Msg &msg) override
    {
        arrivals.push_back({ctx_.curTick(), msg.hops});
    }

    struct Arrival
    {
        Tick tick;
        std::uint8_t hops;
    };
    std::vector<Arrival> arrivals;

  private:
    sim::SimContext &ctx_;
};

} // namespace

TEST(Topology, Names)
{
    EXPECT_STREQ(topologyName(Topology::Crossbar), "crossbar");
    EXPECT_STREQ(topologyName(Topology::Ring), "ring");
    EXPECT_STREQ(topologyName(Topology::Mesh), "mesh");

    Topology t = Topology::Crossbar;
    EXPECT_TRUE(parseTopology("mesh", t));
    EXPECT_EQ(t, Topology::Mesh);
    EXPECT_TRUE(parseTopology("ring", t));
    EXPECT_EQ(t, Topology::Ring);
    EXPECT_TRUE(parseTopology("crossbar", t));
    EXPECT_EQ(t, Topology::Crossbar);
    EXPECT_FALSE(parseTopology("torus", t));
}

TEST(Topology, MeshDimsCoverAllNodes)
{
    for (std::uint32_t n = 2; n <= 130; ++n) {
        const MeshDims d = meshDims(n);
        EXPECT_GE(d.w * d.h, n) << "n=" << n;
        // Minimal width: one column less would not fit n nodes.
        EXPECT_LT(static_cast<std::uint64_t>(d.w - 1) * (d.w - 1), n)
            << "n=" << n;
        // Minimal height for that width.
        EXPECT_LT(static_cast<std::uint64_t>(d.w) * (d.h - 1), n)
            << "n=" << n;
    }
    EXPECT_EQ(meshDims(4).w, 2u);
    EXPECT_EQ(meshDims(4).h, 2u);
    EXPECT_EQ(meshDims(9).w, 3u);
    EXPECT_EQ(meshDims(9).h, 3u);
    // 64 cores + 8 directory banks: a 9x8 grid.
    EXPECT_EQ(meshDims(72).w, 9u);
    EXPECT_EQ(meshDims(72).h, 8u);
}

TEST(Topology, RingHops)
{
    EXPECT_EQ(ringHops(8, 0, 0), 0u);
    EXPECT_EQ(ringHops(8, 0, 1), 1u);
    EXPECT_EQ(ringHops(8, 0, 4), 4u); // antipode
    EXPECT_EQ(ringHops(8, 0, 5), 3u); // shorter counter-clockwise
    EXPECT_EQ(ringHops(8, 7, 0), 1u); // wraps
    EXPECT_EQ(ringHops(3, 2, 0), 1u);
}

TEST(Topology, RingTieBreakIsClockwise)
{
    // The antipode is equidistant both ways; the route must be the
    // same on every host and every run, so ties fix on clockwise.
    EXPECT_TRUE(ringClockwise(8, 0, 4));
    EXPECT_TRUE(ringClockwise(8, 1, 5));
    EXPECT_TRUE(ringClockwise(4, 3, 1));
    // Strictly shorter directions are taken regardless.
    EXPECT_TRUE(ringClockwise(8, 0, 3));
    EXPECT_FALSE(ringClockwise(8, 0, 5));
}

TEST(Topology, MeshHopsIsManhattanDistance)
{
    // 3x3 mesh: node = y * 3 + x.
    EXPECT_EQ(meshHops(9, 0, 0), 0u);
    EXPECT_EQ(meshHops(9, 0, 8), 4u); // corner to corner
    EXPECT_EQ(meshHops(9, 0, 4), 2u); // corner to center
    EXPECT_EQ(meshHops(9, 6, 2), 4u);
    // Distance is symmetric even though routes differ.
    for (NodeId s = 0; s < 9; ++s) {
        for (NodeId d = 0; d < 9; ++d)
            EXPECT_EQ(meshHops(9, s, d), meshHops(9, d, s));
    }
}

TEST(Topology, CrossbarAlwaysOneHop)
{
    EXPECT_TRUE(routeLinks(Topology::Crossbar, 9, 0, 8).empty());

    // Through a real Network: one hop per message, whatever the ids.
    sim::SimContext ctx;
    Network net(ctx, "network", Network::Params{}, 9);
    RecordingEndpoint ep(ctx);
    net.registerEndpoint(8, &ep);
    net.registerEndpoint(0, &ep);
    for (NodeId src : {0u, 8u}) {
        Msg msg;
        msg.src = src;
        msg.dst = 8 - src;
        net.send(std::move(msg));
    }
    ctx.eventq.run();
    ASSERT_EQ(ep.arrivals.size(), 2u);
    EXPECT_EQ(ep.arrivals[0].hops, 1);
    EXPECT_EQ(ep.arrivals[1].hops, 1);
    EXPECT_EQ(net.statGroup().scalarCount("hops"), 2u);
}

TEST(Topology, RingRouteLinkSequence)
{
    // 4-ring antipode 0 -> 2: tie, so clockwise through node 1.
    // Link id = node * 4 + direction (0 = clockwise).
    const std::vector<std::uint32_t> cw{0 * 4 + 0, 1 * 4 + 0};
    EXPECT_EQ(routeLinks(Topology::Ring, 4, 0, 2), cw);

    // 0 -> 3 is one counter-clockwise hop (direction 1).
    const std::vector<std::uint32_t> ccw{0 * 4 + 1};
    EXPECT_EQ(routeLinks(Topology::Ring, 4, 0, 3), ccw);

    EXPECT_TRUE(routeLinks(Topology::Ring, 4, 2, 2).empty());
}

TEST(Topology, MeshRouteIsXThenY)
{
    // 2x2 mesh, 0 (0,0) -> 3 (1,1): east out of node 0, then +y out
    // of node 1.  XY routing never takes the y-first alternative.
    const std::vector<std::uint32_t> expected{0 * 4 + 0, 1 * 4 + 2};
    EXPECT_EQ(routeLinks(Topology::Mesh, 4, 0, 3), expected);

    // 3 -> 0 reverses: west out of node 3, then -y out of node 2.
    const std::vector<std::uint32_t> back{3 * 4 + 1, 2 * 4 + 3};
    EXPECT_EQ(routeLinks(Topology::Mesh, 4, 3, 0), back);

    // Route length always equals the hop count.
    for (NodeId s = 0; s < 9; ++s) {
        for (NodeId d = 0; d < 9; ++d) {
            EXPECT_EQ(routeLinks(Topology::Mesh, 9, s, d).size(),
                      meshHops(9, s, d));
        }
    }
}

TEST(Topology, RingArrivalTiming)
{
    sim::SimContext ctx;
    Network::Params params;
    params.topology = Topology::Ring;
    params.hop_latency = 3;
    params.link_bytes_per_cycle = 16;
    Network net(ctx, "network", params, 4);

    RecordingEndpoint ep(ctx);
    net.registerEndpoint(2, &ep);

    // Header-only message (8 bytes): 2 hops * 3 cycles + 1 cycle of
    // serialization = arrival at tick 7.
    Msg msg;
    msg.type = MsgType::GetS;
    msg.src = 0;
    msg.dst = 2;
    msg.block_addr = 0x40;
    net.send(std::move(msg));
    ctx.eventq.run();

    ASSERT_EQ(ep.arrivals.size(), 1u);
    EXPECT_EQ(ep.arrivals[0].tick, 7u);
    EXPECT_EQ(ep.arrivals[0].hops, 2);

    // A second message on the same channel is FIFO-clamped behind the
    // first arrival plus its serialization cycle.
    Msg msg2;
    msg2.type = MsgType::GetS;
    msg2.src = 0;
    msg2.dst = 2;
    msg2.block_addr = 0x80;
    net.send(std::move(msg2));
    ctx.eventq.run();

    ASSERT_EQ(ep.arrivals.size(), 2u);
    EXPECT_EQ(ep.arrivals[1].tick, 14u);
}

TEST(Topology, MeshPartialLastRowRoutesThroughEmptySlots)
{
    // 24 nodes on a 5x5 grid leave slot 24 (4,4) empty.  XY routes may
    // still cross it as a router -- e.g. (0,4) -> (4,3) walks row 4 out
    // to x=4 and then turns -y out of the empty corner.  routerSlots()
    // must cover the full grid or that turn indexes past the link
    // arrays.
    EXPECT_EQ(routerSlots(Topology::Mesh, 24), 25u);
    EXPECT_EQ(routerSlots(Topology::Ring, 24), 24u);
    EXPECT_EQ(routerSlots(Topology::Crossbar, 24), 24u);

    const std::vector<std::uint32_t> links =
        routeLinks(Topology::Mesh, 24, 20, 19);
    ASSERT_EQ(links.size(), meshHops(24, 20, 19));
    EXPECT_EQ(links.back(), 24u * 4 + 3); // -y out of the empty corner
    for (std::uint32_t link : links)
        EXPECT_LT(link, routerSlots(Topology::Mesh, 24) * 4);

    // End-to-end through a real Network: the send must not corrupt the
    // link counters and the fold must see the empty-slot link.
    sim::SimContext ctx;
    Network::Params params;
    params.topology = Topology::Mesh;
    params.hop_latency = 2;
    Network net(ctx, "network", params, 24);
    RecordingEndpoint ep(ctx);
    net.registerEndpoint(19, &ep);

    Msg msg;
    msg.type = MsgType::GetS;
    msg.src = 20;
    msg.dst = 19;
    msg.block_addr = 0x40;
    net.send(std::move(msg));
    ctx.eventq.run();

    ASSERT_EQ(ep.arrivals.size(), 1u);
    EXPECT_EQ(ep.arrivals[0].hops, 5);
    net.foldLinkStats();
    EXPECT_EQ(net.statGroup().scalarCount("hops"), 5u);
    EXPECT_EQ(net.statGroup().scalarCount("links_used"), 5u);
}

TEST(Topology, MeshHopAndLinkStatsFold)
{
    sim::SimContext ctx;
    Network::Params params;
    params.topology = Topology::Mesh;
    params.hop_latency = 2;
    Network net(ctx, "network", params, 4);

    RecordingEndpoint ep(ctx);
    net.registerEndpoint(3, &ep);

    Msg msg;
    msg.type = MsgType::GetS;
    msg.src = 0;
    msg.dst = 3;
    msg.block_addr = 0x40;
    net.send(std::move(msg));
    ctx.eventq.run();

    ASSERT_EQ(ep.arrivals.size(), 1u);
    EXPECT_EQ(ep.arrivals[0].hops, 2);

    net.foldLinkStats();
    EXPECT_EQ(net.statGroup().scalarCount("hops"), 2u);
    EXPECT_EQ(net.statGroup().scalarCount("links_used"), 2u);
    EXPECT_EQ(net.statGroup().scalarCount("hot_link_msgs"), 1u);
}

TEST(Topology, ChannelFoldMatchesPerMessageWalks)
{
    // Seeded random traffic, data and control, including probe acks the
    // fault injector drops: the end-of-run fold of per-channel totals
    // must match charging every delivered message to each link on its
    // route.  Covers a ring and meshes with a partial (24 nodes on
    // 5x5) and a full (72 nodes on 9x8) last row.
    struct Case
    {
        Topology topology;
        std::uint32_t nodes;
    };
    const Case cases[] = {{Topology::Ring, 24},
                          {Topology::Mesh, 24},
                          {Topology::Mesh, 72}};
    constexpr Addr dropped_block = 0x1000;
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(topologyName(c.topology)) + " " +
                     std::to_string(c.nodes));
        sim::SimContext ctx;
        Network::Params params;
        params.topology = c.topology;
        params.hop_latency = 2;
        params.link_bytes_per_cycle = 16;
        params.drop_fwd_acks_for = {dropped_block};
        Network net(ctx, "network", params, c.nodes);
        std::vector<std::unique_ptr<RecordingEndpoint>> eps;
        for (NodeId n = 0; n < c.nodes; ++n) {
            eps.push_back(std::make_unique<RecordingEndpoint>(ctx));
            net.registerEndpoint(n, eps.back().get());
        }

        const std::size_t nlinks =
            static_cast<std::size_t>(routerSlots(c.topology, c.nodes)) * 4;
        std::vector<std::uint64_t> want_msgs(nlinks, 0);
        std::vector<std::uint64_t> want_busy(nlinks, 0);
        std::uint64_t want_hops = 0;
        Random rng(c.nodes * 31 + static_cast<std::uint64_t>(c.topology));
        for (int i = 0; i < 3000; ++i) {
            Msg msg;
            msg.src = static_cast<NodeId>(rng.range(0, c.nodes - 1));
            msg.dst = static_cast<NodeId>(rng.range(0, c.nodes - 1));
            const bool data = rng.range(0, 2) == 0;
            const bool drop = rng.range(0, 15) == 0;
            msg.type = drop ? MsgType::FwdNoDataAck
                            : data ? MsgType::DataM : MsgType::GetS;
            msg.block_addr = drop ? dropped_block : 0x40;
            if (data && !drop)
                msg.data.assign(64, 0x5a);
            if (!drop) {
                // 8-byte header plus payload at 16 bytes per cycle.
                const std::uint64_t serialization = data ? 5 : 1;
                forEachRouteLink(c.topology, c.nodes, msg.src, msg.dst,
                                 [&](std::uint32_t link) {
                                     ++want_msgs[link];
                                     want_busy[link] += serialization;
                                     ++want_hops;
                                 });
            }
            net.send(std::move(msg));
            if (i % 100 == 99)
                ctx.eventq.run();
        }
        ctx.eventq.run();

        EXPECT_EQ(net.foldedLinkMsgs(), want_msgs);
        net.foldLinkStats();
        std::uint64_t used = 0, hot_msgs = 0, hot_busy = 0;
        for (std::size_t l = 0; l < nlinks; ++l) {
            used += want_msgs[l] != 0;
            hot_msgs = std::max(hot_msgs, want_msgs[l]);
            hot_busy = std::max(hot_busy, want_busy[l]);
        }
        const auto &stats = net.statGroup();
        EXPECT_GT(net.droppedMsgs(), 0u);
        EXPECT_EQ(stats.scalarCount("hops"), want_hops);
        EXPECT_EQ(stats.scalarCount("links_used"), used);
        EXPECT_EQ(stats.scalarCount("hot_link_msgs"), hot_msgs);
        EXPECT_EQ(stats.scalarCount("hot_link_busy"), hot_busy);
    }
}
