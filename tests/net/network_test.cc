#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "guard/auditor.h"
#include "support/network_payload.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

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
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
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
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
}

TEST(NetworkTest, RemoveReleasesResidual) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  const FlowId id = net.Place(fx.MakeFlow(30.0), p);
  net.Remove(id);
  EXPECT_DOUBLE_EQ(net.Residual(p.links[0]), 100.0);
  EXPECT_EQ(net.placed_flow_count(), 0u);
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
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
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
}

TEST(NetworkTest, RerouteToOverlappingPathUsesSelfRelease) {
  LineFixture fx;
  Network net(fx.graph);
  const Path p = fx.AbcPath();
  const FlowId id = net.Place(fx.MakeFlow(100.0), p);  // saturates both links
  // Rerouting onto the same path must succeed (self-capacity counts).
  net.Reroute(id, p);
  EXPECT_DOUBLE_EQ(net.Residual(p.links[0]), 0.0);
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
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
  // Congestion-free invariant violated.
  EXPECT_GT(guard::Auditor().Audit(net, {}), 0u);
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
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
  EXPECT_EQ(guard::Auditor().Audit(copy, {}), 0u);
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
  EXPECT_GT(guard::Auditor().Audit(net, {}), 0u);
  net.Remove(id);
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
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
  EXPECT_EQ(guard::Auditor().Audit(loaded, {}), 0u);

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

// The allocator's 32-bit bound, which FlowTable::Add checks, holds for a
// loaded table too: a larger next id throws before any slot is allocated.
TEST(NetworkLoadStateTest, NextIdBeyond32BitsThrows) {
  CraftedPayload at_bound;
  at_bound.fields.next_id = std::numeric_limits<std::uint32_t>::max();
  EXPECT_THROW(at_bound.Load(), CorruptInput);
  CraftedPayload beyond;
  beyond.fields.next_id = std::uint64_t{1} << 40;
  EXPECT_THROW(beyond.Load(), CorruptInput);
}

// A next id just below the 32-bit bound allocates by the records read, not
// by the id: two records, the lowest id and the highest below the next id,
// load into a bounded footprint, stay addressable, and the next Place gets
// the stored next id.
TEST(NetworkLoadStateTest, HugeNextIdLoadsWithinBoundedMemory) {
  constexpr std::uint64_t kNext = std::numeric_limits<std::uint32_t>::max() - 1;
  constexpr std::size_t kBound = std::size_t{16} << 20;
  CraftedPayload p;
  p.fields.next_id = kNext;
  p.fields.flows[1].id = FlowId{kNext - 1};
  p.fields.placed[1].first = kNext - 1;
  const std::string payload = test_support::SerializeNetwork(p.fields);
  Network net(p.fx.graph);
  BinReader r(payload);
  net.LoadState(r);
  r.ExpectEnd();
  EXPECT_LT(net.ApproxStateBytes(), kBound);
  EXPECT_EQ(net.placed_flow_count(), 2u);
  EXPECT_TRUE(net.HasFlow(FlowId{0}));
  EXPECT_TRUE(net.HasFlow(FlowId{kNext - 1}));
  EXPECT_FALSE(net.HasFlow(FlowId{1}));
  EXPECT_FALSE(net.HasFlow(FlowId{kNext}));
  EXPECT_DOUBLE_EQ(net.FlowOf(FlowId{0}).demand, 10.0);
  EXPECT_DOUBLE_EQ(net.FlowOf(FlowId{kNext - 1}).demand, 20.0);
  EXPECT_EQ(net.PathOf(FlowId{kNext - 1}).links, p.fx.AbcPath().links);
  const FlowId placed = net.Place(p.fx.MakeFlow(5.0), p.fx.AbcPath());
  EXPECT_EQ(placed.value(), kNext);
  EXPECT_EQ(net.FlowIdUpperBound(), kNext + 1);
  EXPECT_LT(net.ApproxStateBytes(), kBound);
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
  const LinkId ab = p.fx.AbcPath().links[0];
  EXPECT_EQ(std::vector<std::uint32_t>(net.LinkFlowIds(ab).begin(),
                                       net.LinkFlowIds(ab).end()),
            (std::vector<std::uint32_t>{
                0, static_cast<std::uint32_t>(kNext - 1),
                static_cast<std::uint32_t>(kNext)}));
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

// A path that crosses one link twice (loaded from a payload; Place would
// reject it) puts its flow on that link's list twice, as Occupy would, so
// Remove's two erasures both find it.
TEST(NetworkLoadStateTest, RebuiltListRepeatsAFlowPerCrossing) {
  LineFixture fx;
  Path looped;
  looped.nodes = {fx.a, fx.b, fx.a, fx.b, fx.c};
  for (std::size_t i = 0; i + 1 < looped.nodes.size(); ++i) {
    looped.links.push_back(
        fx.graph.FindLink(looped.nodes[i], looped.nodes[i + 1]));
  }
  const test_support::CraftedPlacement placed{fx.MakeFlow(10.0), looped};
  const std::string payload =
      test_support::NetworkPayload(fx.graph, {&placed, 1});
  Network net(fx.graph);
  BinReader r(payload);
  net.LoadState(r);
  r.ExpectEnd();
  const LinkId ab = looped.links[0];
  ASSERT_EQ(looped.links[2], ab);
  EXPECT_EQ(std::vector<std::uint32_t>(net.LinkFlowIds(ab).begin(),
                                       net.LinkFlowIds(ab).end()),
            (std::vector<std::uint32_t>{0, 0}));
  net.Remove(FlowId{0});
  for (const auto& l : fx.graph.links()) {
    EXPECT_TRUE(net.LinkFlowIds(l.id).empty());
    EXPECT_DOUBLE_EQ(net.Residual(l.id), 100.0);
  }
}

/// One random state change on a k=4 fat tree: a feasible or forced
/// placement, a removal, a reroute to another candidate, or a link or
/// switch outage toggle.
void RandomStep(const topo::FatTree& ft, const topo::PathProvider& provider,
                Network& net, Rng& rng) {
  const std::size_t op = rng.Index(7);
  if (op <= 2 || net.placed_flow_count() == 0) {
    flow::Flow f;
    f.src = ft.host(rng.Index(ft.host_count()));
    do {
      f.dst = ft.host(rng.Index(ft.host_count()));
    } while (f.dst == f.src);
    f.demand = rng.Uniform(1.0, 40.0);
    f.duration = 5.0;
    const auto& paths = provider.Paths(f.src, f.dst);
    const Path& p = paths[rng.Index(paths.size())];
    if (op == 0) {
      net.ForcePlace(std::move(f), p);  // may overcommit
    } else if (net.CanPlace(f.demand, p)) {
      net.Place(std::move(f), p);
    }
    return;
  }
  const std::vector<FlowId> placed = net.PlacedFlows();
  const FlowId id = placed[rng.Index(placed.size())];
  if (op == 3) {
    net.Remove(id);
  } else if (op == 4) {
    const flow::Flow& f = net.FlowOf(id);
    const auto& paths = provider.Paths(f.src, f.dst);
    const Path& p = paths[rng.Index(paths.size())];
    if (net.CanReroute(id, p)) net.Reroute(id, p);
  } else if (op == 5) {
    const LinkId link{
        static_cast<LinkId::rep_type>(rng.Index(ft.graph().link_count()))};
    net.SetLinkUp(link, !net.LinkUp(link));
  } else {
    const NodeId node = ft.core(rng.Index(4));
    net.SetNodeUp(node, !net.NodeUp(node));
  }
}

std::string SaveBytes(const Network& net) {
  BinWriter w;
  net.SaveState(w);
  return w.TakeBuffer();
}

// Format v9 leaves the per-link flow lists out of the payload and LoadState
// rebuilds them from the placements. After random placements, forced
// overcommits, removals, reroutes and outages, a fresh network loaded from
// the payload holds the live network's list on every link and its residual
// row bit for bit, re-saves the same bytes, and gives every flow up again.
TEST(NetworkSnapshotTest, LoadRebuildsTheLiveLinkLists) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  const topo::FatTreePathProvider provider(ft);
  std::size_t checked_entries = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Network live(ft.graph());
    for (int step = 1; step <= 400; ++step) {
      RandomStep(ft, provider, live, rng);
      if (step % 40 != 0) continue;
      const std::string saved = SaveBytes(live);
      Network loaded(ft.graph());
      BinReader r(saved);
      loaded.LoadState(r);
      r.ExpectEnd();
      for (const auto& l : ft.graph().links()) {
        const auto want = live.LinkFlowIds(l.id);
        const auto got = loaded.LinkFlowIds(l.id);
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                               got.end()))
            << "seed " << seed << " step " << step << " link "
            << l.id.value();
        checked_entries += want.size();
      }
      const auto live_residual = live.ResidualArray();
      const auto loaded_residual = loaded.ResidualArray();
      ASSERT_EQ(live_residual.size(), loaded_residual.size());
      ASSERT_EQ(std::memcmp(live_residual.data(), loaded_residual.data(),
                            live_residual.size_bytes()),
                0)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(SaveBytes(loaded), saved)
          << "seed " << seed << " step " << step;
      for (const FlowId id : loaded.PlacedFlows()) loaded.Remove(id);
      EXPECT_EQ(loaded.placed_flow_count(), 0u);
      for (const auto& l : ft.graph().links()) {
        ASSERT_TRUE(loaded.LinkFlowIds(l.id).empty());
      }
    }
  }
  EXPECT_GT(checked_entries, 1000u);
}

// A down count and a used-paths table index are values, not lengths: a
// payload with more links down, or a table index larger, than the bytes
// left after the field must still load. Both were once read as lengths,
// which rejected such a payload as corrupt.
TEST(NetworkSnapshotTest, LargeCountsAndTableIndicesLoad) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const topo::FatTreePathProvider provider(ft);
  Network live(ft.graph());
  for (std::size_t s = 0; s < ft.host_count(); ++s) {
    for (std::size_t d = 0; d < ft.host_count(); ++d) {
      if (s == d) continue;
      for (const Path& p : provider.Paths(ft.host(s), ft.host(d))) {
        flow::Flow f;
        f.src = ft.host(s);
        f.dst = ft.host(d);
        f.demand = 0.5;
        f.duration = 1.0;
        live.Place(std::move(f), p);
      }
    }
  }
  for (std::size_t i = 0; i < 40; ++i) {
    live.SetLinkUp(LinkId{static_cast<LinkId::rep_type>(i)}, false);
  }
  const std::string saved = SaveBytes(live);
  // Down counts (2 x 8 bytes) and the two epochs follow the up-arrays.
  ASSERT_GT(live.down_link_count(), 2u * 8u + 2u * 8u);
  ASSERT_GT(live.placed_flow_count(),
            ft.graph().link_count() + ft.graph().node_count() + 6u * 8u);
  Network loaded(ft.graph());
  BinReader r(saved);
  ASSERT_NO_THROW(loaded.LoadState(r));
  r.ExpectEnd();
  EXPECT_EQ(loaded.down_link_count(), 40u);
  EXPECT_EQ(SaveBytes(loaded), saved);
}

}  // namespace
}  // namespace nu::net
