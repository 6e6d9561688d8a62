#include "net/network.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "support/network_payload.h"

namespace nu::net {
namespace {

using topo::Graph;
using topo::NodeRole;
using topo::Path;

/// Line graph a-b-c with 100 Mbps links.
struct LineFixture {
  LineFixture() {
    a = graph.AddNode(NodeRole::kHost);
    b = graph.AddNode(NodeRole::kGeneric);
    c = graph.AddNode(NodeRole::kHost);
    graph.AddBidirectional(a, b, 100.0);
    graph.AddBidirectional(b, c, 100.0);
  }

  [[nodiscard]] Path AbcPath() const {
    const std::array<NodeId, 3> seq{a, b, c};
    return graph.MakePath(seq);
  }

  [[nodiscard]] flow::Flow MakeFlow(Mbps demand, Seconds duration = 5.0) const {
    flow::Flow f;
    f.src = a;
    f.dst = c;
    f.demand = demand;
    f.duration = duration;
    return f;
  }

  Graph graph;
  NodeId a, b, c;
};

TEST(NetworkTest, InitialResidualEqualsCapacity) {
  LineFixture fx;
  Network net(fx.graph);
  for (const auto& l : fx.graph.links()) {
    EXPECT_DOUBLE_EQ(net.Residual(l.id), 100.0);
    EXPECT_DOUBLE_EQ(net.Utilization(l.id), 0.0);
  }
  EXPECT_DOUBLE_EQ(net.AverageUtilization(), 0.0);
  EXPECT_TRUE(net.CheckInvariants());
}

TEST(NetworkTest, PlaceConsumesResidual) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  const FlowId id = net.Place(fx.MakeFlow(30.0), p);
  EXPECT_DOUBLE_EQ(net.Residual(p.links[0]), 70.0);
  EXPECT_DOUBLE_EQ(net.Residual(p.links[1]), 70.0);
  EXPECT_EQ(net.placed_flow_count(), 1u);
  EXPECT_EQ(net.PathOf(id), p);
  EXPECT_TRUE(net.CheckInvariants());
}

TEST(NetworkTest, RemoveReleasesResidual) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  const FlowId id = net.Place(fx.MakeFlow(30.0), p);
  net.Remove(id);
  EXPECT_DOUBLE_EQ(net.Residual(p.links[0]), 100.0);
  EXPECT_EQ(net.placed_flow_count(), 0u);
  EXPECT_TRUE(net.CheckInvariants());
}

TEST(NetworkTest, CanPlaceRespectsResidual) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  net.Place(fx.MakeFlow(80.0), p);
  EXPECT_TRUE(net.CanPlace(20.0, p));
  EXPECT_FALSE(net.CanPlace(20.1, p));
}

TEST(NetworkTest, CongestedLinksDetection) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  // Load only the first link via a one-hop path a->b.
  const std::array<NodeId, 2> seq{fx.a, fx.b};
  flow::Flow f;
  f.src = fx.a;
  f.dst = fx.b;
  f.demand = 90.0;
  f.duration = 1.0;
  net.Place(std::move(f), fx.graph.MakePath(seq));

  const auto congested = net.CongestedLinks(50.0, p);
  ASSERT_EQ(congested.size(), 1u);
  EXPECT_EQ(congested[0], p.links[0]);
}

TEST(NetworkTest, RerouteMovesBandwidth) {
  // Diamond: a-b-d and a-c-d.
  Graph g;
  const NodeId a = g.AddNode(NodeRole::kHost);
  const NodeId b = g.AddNode(NodeRole::kGeneric);
  const NodeId c = g.AddNode(NodeRole::kGeneric);
  const NodeId d = g.AddNode(NodeRole::kHost);
  g.AddBidirectional(a, b, 100.0);
  g.AddBidirectional(b, d, 100.0);
  g.AddBidirectional(a, c, 100.0);
  g.AddBidirectional(c, d, 100.0);
  Network net(g);
  const std::array<NodeId, 3> top{a, b, d};
  const std::array<NodeId, 3> bottom{a, c, d};
  const Path top_path = g.MakePath(top);
  const Path bottom_path = g.MakePath(bottom);

  flow::Flow f;
  f.src = a;
  f.dst = d;
  f.demand = 60.0;
  f.duration = 9.0;
  const FlowId id = net.Place(std::move(f), top_path);
  net.Reroute(id, bottom_path);

  EXPECT_DOUBLE_EQ(net.Residual(top_path.links[0]), 100.0);
  EXPECT_DOUBLE_EQ(net.Residual(bottom_path.links[0]), 40.0);
  EXPECT_EQ(net.PathOf(id), bottom_path);
  EXPECT_TRUE(net.CheckInvariants());
}

TEST(NetworkTest, RerouteToOverlappingPathUsesSelfRelease) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  const FlowId id = net.Place(fx.MakeFlow(100.0), p);  // saturates both links
  // Rerouting onto the same path must succeed (self-capacity counts).
  net.Reroute(id, p);
  EXPECT_DOUBLE_EQ(net.Residual(p.links[0]), 0.0);
  EXPECT_TRUE(net.CheckInvariants());
}

TEST(NetworkTest, LinkFlowIdsTrackMembership) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  const FlowId f1 = net.Place(fx.MakeFlow(10.0), p);
  const FlowId f2 = net.Place(fx.MakeFlow(20.0), p);
  const std::span<const std::uint32_t> on_link = net.LinkFlowIds(p.links[0]);
  ASSERT_EQ(on_link.size(), 2u);
  EXPECT_EQ(on_link[0], f1.value());
  EXPECT_EQ(on_link[1], f2.value());
  EXPECT_TRUE(net.FlowUsesLink(f1, p.links[0]));
  net.Remove(f1);
  EXPECT_FALSE(net.FlowUsesLink(f1, p.links[0]));
  EXPECT_EQ(net.FlowCountOnLink(p.links[0]), 1u);
}

TEST(NetworkTest, ForcePlaceAllowsOversubscription) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  net.Place(fx.MakeFlow(90.0), p);
  net.ForcePlace(fx.MakeFlow(50.0), p);
  EXPECT_LT(net.Residual(p.links[0]), 0.0);
  EXPECT_FALSE(net.CheckInvariants());  // congestion-free invariant violated
}

TEST(NetworkTest, CopyIsIndependent) {
  LineFixture fx;
  const NodeId spare = fx.graph.AddNode(NodeRole::kGeneric);  // on no path
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  net.Place(fx.MakeFlow(50.0), p);
  // Fault state travels with a copy: down marks, down counts and the
  // topology epoch. Neither down element is on the placed path.
  const LinkId spare_link = fx.graph.links().back().id;  // c -> b
  net.SetLinkUp(spare_link, false);
  net.SetNodeUp(spare, false);
  const std::uint64_t epoch = net.topology_epoch();
  Network copy = net;
  EXPECT_FALSE(copy.LinkUp(spare_link));
  EXPECT_FALSE(copy.NodeUp(spare));
  EXPECT_EQ(copy.down_link_count(), 1u);
  EXPECT_EQ(copy.down_node_count(), 1u);
  EXPECT_EQ(copy.topology_epoch(), epoch);

  copy.Place(fx.MakeFlow(25.0), p);
  copy.SetLinkUp(spare_link, true);
  copy.SetNodeUp(spare, true);
  EXPECT_DOUBLE_EQ(net.Residual(p.links[0]), 50.0);
  EXPECT_DOUBLE_EQ(copy.Residual(p.links[0]), 25.0);
  EXPECT_FALSE(net.LinkUp(spare_link));
  EXPECT_FALSE(net.NodeUp(spare));
  EXPECT_EQ(net.down_link_count(), 1u);
  EXPECT_EQ(net.down_node_count(), 1u);
  EXPECT_EQ(net.topology_epoch(), epoch);
  EXPECT_EQ(copy.down_link_count(), 0u);
  EXPECT_EQ(copy.down_node_count(), 0u);
  EXPECT_GT(copy.topology_epoch(), epoch);
  EXPECT_TRUE(net.CheckInvariants());
  EXPECT_TRUE(copy.CheckInvariants());
}

TEST(NetworkTest, UtilizationAverages) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  net.Place(fx.MakeFlow(50.0), p);
  // Two of four directed links at 50%: average 25%.
  EXPECT_DOUBLE_EQ(net.AverageUtilization(), 0.25);
  // Active links only: 50%.
  EXPECT_DOUBLE_EQ(net.ActiveLinkUtilization(), 0.5);
}

TEST(NetworkDeathTest, PlaceRejectsInfeasible) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  net.Place(fx.MakeFlow(90.0), p);
  EXPECT_DEATH(net.Place(fx.MakeFlow(20.0), p), "Precondition");
}

TEST(NetworkDeathTest, PlaceRejectsWrongEndpoints) {
  LineFixture fx;
  Network net(fx.graph);
  flow::Flow f;
  f.src = fx.b;  // path starts at a
  f.dst = fx.c;
  f.demand = 1.0;
  f.duration = 1.0;
  EXPECT_DEATH(net.Place(std::move(f), fx.AbcPath()), "Precondition");
}

TEST(NetworkDeathTest, RemoveUnknownFlow) {
  LineFixture fx;
  Network net(fx.graph);
  EXPECT_DEATH(net.Remove(FlowId{123}), "Precondition");
}

TEST(NetworkFaultStateTest, AllUpInitiallyAndEpochZero) {
  LineFixture fx;
  Network net(fx.graph);
  EXPECT_EQ(net.topology_epoch(), 0u);
  EXPECT_EQ(net.down_link_count(), 0u);
  EXPECT_EQ(net.down_node_count(), 0u);
  for (const auto& l : fx.graph.links()) EXPECT_TRUE(net.LinkUp(l.id));
  EXPECT_TRUE(net.NodeUp(fx.b));
  EXPECT_TRUE(net.PathAlive(fx.AbcPath()));
}

TEST(NetworkFaultStateTest, DownLinkKillsPathAndRevokesCapacity) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  net.SetLinkUp(p.links[0], false);
  EXPECT_FALSE(net.LinkUp(p.links[0]));
  EXPECT_FALSE(net.PathAlive(p));
  EXPECT_FALSE(net.CanPlace(1.0, p));  // plenty of residual, but dead
  EXPECT_EQ(net.down_link_count(), 1u);

  net.SetLinkUp(p.links[0], true);
  EXPECT_TRUE(net.PathAlive(p));
  EXPECT_TRUE(net.CanPlace(1.0, p));
  EXPECT_EQ(net.down_link_count(), 0u);
}

TEST(NetworkFaultStateTest, DownNodeKillsEveryPathThroughIt) {
  LineFixture fx;
  Network net(fx.graph);
  net.SetNodeUp(fx.b, false);
  EXPECT_FALSE(net.PathAlive(fx.AbcPath()));
  EXPECT_EQ(net.down_node_count(), 1u);
  net.SetNodeUp(fx.b, true);
  EXPECT_TRUE(net.PathAlive(fx.AbcPath()));
}

TEST(NetworkFaultStateTest, EpochBumpsOnlyOnTransitions) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  net.SetLinkUp(p.links[0], false);
  const auto after_down = net.topology_epoch();
  EXPECT_GT(after_down, 0u);
  net.SetLinkUp(p.links[0], false);  // idempotent: no transition
  EXPECT_EQ(net.topology_epoch(), after_down);
  net.SetLinkUp(p.links[0], true);
  EXPECT_GT(net.topology_epoch(), after_down);
}

TEST(NetworkFaultStateTest, InvariantsFailWhileFlowsOccupyDeadElements) {
  // The fault layer must remove victims explicitly; until it does, the
  // network reports the inconsistency.
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  const FlowId id = net.Place(fx.MakeFlow(10.0), p);
  net.SetLinkUp(p.links[1], false);
  EXPECT_FALSE(net.CheckInvariants());
  net.Remove(id);
  EXPECT_TRUE(net.CheckInvariants());
}

TEST(NetworkFaultStateTest, RerouteRejectsDeadTargetPath) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  const FlowId id = net.Place(fx.MakeFlow(10.0), p);
  net.SetLinkUp(p.links[0], false);
  EXPECT_FALSE(net.CanReroute(id, p));
}

// A CRC-valid snapshot can still name ids outside the topology. LoadState
// rejects them with CorruptInput, the recovery path's cue to fall back to
// an older snapshot, before Release or the auditor indexes per-link state
// by them.
TEST(NetworkLoadStateTest, OutOfRangeIdsThrowCorruptInput) {
  LineFixture fx;
  const auto load = [&](const Path& path, std::uint64_t first_id = 0) {
    const test_support::CraftedPlacement placed{fx.MakeFlow(10.0), path};
    const std::string payload =
        test_support::NetworkPayload(fx.graph, {&placed, 1}, first_id);
    Network net(fx.graph);
    BinReader r(payload);
    net.LoadState(r);
    r.ExpectEnd();
    return net;
  };
  const Path good = fx.AbcPath();
  const Network loaded = load(good);
  EXPECT_EQ(loaded.placed_flow_count(), 1u);
  EXPECT_TRUE(loaded.CheckInvariants());

  Path bad_link = good;
  bad_link.links[1] = LinkId{static_cast<LinkId::rep_type>(
      fx.graph.link_count())};
  EXPECT_THROW((void)load(bad_link), CorruptInput);
  Path bad_node = good;
  bad_node.nodes[1] = NodeId{static_cast<NodeId::rep_type>(
      fx.graph.node_count())};
  EXPECT_THROW((void)load(bad_node), CorruptInput);
  EXPECT_THROW((void)load(good, /*first_id=*/1), CorruptInput);
  EXPECT_THROW((void)load(good, /*first_id=*/~std::uint64_t{0}), CorruptInput);
}

// The cases below each break one field of an otherwise consistent payload
// whose two flows both cross a-b-c, so every link of that path lists ids 0
// and 1. Each defect must throw CorruptInput, not abort, so recovery can
// fall back to an older snapshot.
struct CraftedPayload {
  CraftedPayload() {
    placements.push_back({fx.MakeFlow(10.0), fx.AbcPath()});
    placements.push_back({fx.MakeFlow(20.0), fx.AbcPath()});
    fields = test_support::NetworkFields(fx.graph, placements);
  }

  void Load() const {
    const std::string payload = test_support::SerializeNetwork(fields);
    Network net(fx.graph);
    BinReader r(payload);
    net.LoadState(r);
    r.ExpectEnd();
  }

  LineFixture fx;
  std::vector<test_support::CraftedPlacement> placements;
  test_support::NetworkFieldValues fields;
};

TEST(NetworkLoadStateTest, ConsistentCraftedPayloadLoads) {
  const CraftedPayload p;
  EXPECT_NO_THROW(p.Load());
}

TEST(NetworkLoadStateTest, FlowRecordIdAtNextIdThrows) {
  CraftedPayload p;
  p.fields.flows[1].id = FlowId{p.fields.next_id};
  EXPECT_THROW(p.Load(), CorruptInput);
}

TEST(NetworkLoadStateTest, DuplicatedFlowRecordThrows) {
  CraftedPayload p;
  p.fields.flows[1].id = p.fields.flows[0].id;
  EXPECT_THROW(p.Load(), CorruptInput);
}

TEST(NetworkLoadStateTest, ResidualRowOfWrongLengthThrows) {
  CraftedPayload p;
  p.fields.residual.pop_back();
  EXPECT_THROW(p.Load(), CorruptInput);
}

TEST(NetworkLoadStateTest, LinkTableOfWrongLengthThrows) {
  CraftedPayload p;
  p.fields.link_flows.pop_back();
  EXPECT_THROW(p.Load(), CorruptInput);
}

TEST(NetworkLoadStateTest, LinkFlowIdBeyond32BitsThrows) {
  CraftedPayload p;
  const LinkId link = p.fx.AbcPath().links[0];
  p.fields.link_flows[link.value()].back() = std::uint64_t{1} << 32;
  EXPECT_THROW(p.Load(), CorruptInput);
}

TEST(NetworkLoadStateTest, UnsortedLinkListThrows) {
  CraftedPayload p;
  auto& ids = p.fields.link_flows[p.fx.AbcPath().links[1].value()];
  ASSERT_EQ(ids.size(), 2u);
  std::swap(ids[0], ids[1]);
  EXPECT_THROW(p.Load(), CorruptInput);
}

TEST(NetworkLoadStateTest, UpArraysOfWrongLengthThrow) {
  CraftedPayload short_links;
  short_links.fields.link_up.pop_back();
  EXPECT_THROW(short_links.Load(), CorruptInput);
  CraftedPayload long_nodes;
  long_nodes.fields.node_up.push_back(1);
  EXPECT_THROW(long_nodes.Load(), CorruptInput);
}

TEST(NetworkLoadStateTest, FlowPlacedTwiceThrows) {
  CraftedPayload p;
  p.fields.placed.emplace_back(0, 1);
  EXPECT_THROW(p.Load(), CorruptInput);
}

TEST(NetworkLoadStateTest, StoredFlowWithoutPlacementThrows) {
  CraftedPayload p;
  p.fields.placed.pop_back();
  EXPECT_THROW(p.Load(), CorruptInput);
}

// A zero down count beside a down element would make PathAlive's fast path
// report dead paths as alive, so the counts must match the up-arrays.
TEST(NetworkLoadStateTest, DownCountsDisagreeingWithUpArraysThrow) {
  CraftedPayload hidden_link;
  hidden_link.fields.link_up[0] = 0;  // down_links stays 0
  EXPECT_THROW(hidden_link.Load(), CorruptInput);
  CraftedPayload hidden_node;
  hidden_node.fields.node_up[1] = 0;  // down_nodes stays 0
  EXPECT_THROW(hidden_node.Load(), CorruptInput);
  CraftedPayload phantom;
  phantom.fields.down_links = 1;  // every link is up
  EXPECT_THROW(phantom.Load(), CorruptInput);

  CraftedPayload counted;
  counted.fields.link_up[0] = 0;
  counted.fields.down_links = 1;
  counted.fields.node_up[1] = 0;
  counted.fields.down_nodes = 1;
  EXPECT_NO_THROW(counted.Load());
}

}  // namespace
}  // namespace nu::net
