// Tests for fabric-vs-host distinctions: oversubscribed Fat-Trees,
// FabricUtilization, per-tier headroom, and ECMP-hash background placement.
#include <gtest/gtest.h>

#include "net/network.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "trace/background.h"
#include "trace/yahoo_like.h"

namespace nu::net {
namespace {

TEST(OversubscriptionTest, FabricLinksScaled) {
  const topo::FatTree ft(topo::FatTreeConfig{
      .k = 4, .link_capacity = 1000.0, .fabric_capacity_factor = 0.5});
  const auto& g = ft.graph();
  // Host link at full capacity.
  const LinkId host_link = g.FindLink(ft.host(0), ft.edge(0, 0));
  ASSERT_TRUE(host_link.valid());
  EXPECT_DOUBLE_EQ(g.link(host_link).capacity, 1000.0);
  // Edge-agg and agg-core links halved.
  const LinkId edge_agg = g.FindLink(ft.edge(0, 0), ft.agg(0, 0));
  ASSERT_TRUE(edge_agg.valid());
  EXPECT_DOUBLE_EQ(g.link(edge_agg).capacity, 500.0);
  const LinkId agg_core = g.FindLink(ft.agg(0, 0), ft.core(0));
  ASSERT_TRUE(agg_core.valid());
  EXPECT_DOUBLE_EQ(g.link(agg_core).capacity, 500.0);
}

TEST(FabricUtilizationTest, CountsOnlyFabricLinks) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  Network net(ft.graph());
  // Load only one host pair's single path: 2 host links + 0 fabric links.
  const topo::FatTreePathProvider provider(ft);
  const auto& p = provider.Paths(ft.host(0), ft.host(1));
  flow::Flow f;
  f.src = ft.host(0);
  f.dst = ft.host(1);
  f.demand = 50.0;
  f.duration = 1.0;
  net.Place(std::move(f), p[0]);
  EXPECT_GT(net.AverageUtilization(), 0.0);
  EXPECT_DOUBLE_EQ(net.FabricUtilization(), 0.0);

  // An inter-pod flow loads fabric links too.
  const auto& q = provider.Paths(ft.host(0), ft.host(12));
  flow::Flow g;
  g.src = ft.host(0);
  g.dst = ft.host(12);
  g.demand = 10.0;
  g.duration = 1.0;
  net.Place(std::move(g), q[0]);
  EXPECT_GT(net.FabricUtilization(), 0.0);
}

TEST(FabricUtilizationTest, HostOnlyGraphFallsBack) {
  topo::Graph g;
  const NodeId a = g.AddNode(topo::NodeRole::kHost);
  const NodeId b = g.AddNode(topo::NodeRole::kHost);
  g.AddBidirectional(a, b, 100.0);
  Network net(g);
  flow::Flow f;
  f.src = a;
  f.dst = b;
  f.demand = 50.0;
  f.duration = 1.0;
  const std::array<NodeId, 2> seq{a, b};
  net.Place(std::move(f), g.MakePath(seq));
  EXPECT_DOUBLE_EQ(net.FabricUtilization(), net.AverageUtilization());
}

TEST(HeadroomTest, HostLinksKeepLargerReserve) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  const topo::FatTreePathProvider provider(ft);
  net::Network network(ft.graph());
  trace::YahooLikeGenerator gen(ft.hosts(), Rng(5));
  trace::BackgroundOptions options;
  options.target_utilization = 0.9;  // ask for more than headroom allows
  options.link_headroom = 0.05;
  options.host_link_headroom = 0.3;
  options.max_consecutive_failures = 300;
  trace::InjectBackground(network, provider, gen, options);

  for (const auto& link : ft.graph().links()) {
    const bool touches_host =
        ft.graph().node(link.src).role == topo::NodeRole::kHost ||
        ft.graph().node(link.dst).role == topo::NodeRole::kHost;
    const double max_util = touches_host ? 0.7 : 0.95;
    EXPECT_LE(network.Utilization(link.id), max_util + 1e-9)
        << ft.graph().node(link.src).name << "->"
        << ft.graph().node(link.dst).name;
  }
}

TEST(HeadroomTest, FitsWithHeadroomRespectsTiers) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  const topo::FatTreePathProvider provider(ft);
  net::Network network(ft.graph());
  trace::BackgroundOptions options;
  options.link_headroom = 0.1;
  options.host_link_headroom = 0.5;
  const std::vector<Mbps> reserve =
      trace::HeadroomReserve(ft.graph(), options);
  const auto& p = provider.Paths(ft.host(0), ft.host(2));
  // 50 Mbps would leave exactly 50 on the host links: allowed (>= 50).
  EXPECT_TRUE(trace::FitsWithHeadroom(network, reserve, p[0], 50.0));
  // 51 Mbps violates the 50% host reserve.
  EXPECT_FALSE(trace::FitsWithHeadroom(network, reserve, p[0], 51.0));
}

TEST(RandomPathPlacementTest, SpreadsAcrossCandidates) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const topo::FatTreePathProvider provider(ft);
  net::Network network(ft.graph());
  const std::vector<Mbps> reserve =
      trace::HeadroomReserve(ft.graph(), trace::BackgroundOptions{});
  Rng rng(9);
  std::set<std::vector<NodeId>> used;
  for (int i = 0; i < 64; ++i) {
    const topo::Path* path = trace::FindRandomPathWithHeadroom(
        network, provider, ft.host(0), ft.host(12), 1.0, reserve, rng);
    ASSERT_NE(path, nullptr);
    used.insert(path->nodes);
  }
  // 4 inter-pod candidates on k=4; random placement should hit all of them.
  EXPECT_EQ(used.size(), 4u);
}

TEST(RandomPathPlacementTest, NulloptWhenNothingFits) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  const topo::FatTreePathProvider provider(ft);
  net::Network network(ft.graph());
  const std::vector<Mbps> reserve =
      trace::HeadroomReserve(ft.graph(), trace::BackgroundOptions{});
  Rng rng(10);
  const topo::Path* path = trace::FindRandomPathWithHeadroom(
      network, provider, ft.host(0), ft.host(1), 150.0, reserve, rng);
  EXPECT_EQ(path, nullptr);
}

}  // namespace
}  // namespace nu::net
