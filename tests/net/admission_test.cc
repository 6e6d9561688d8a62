#include "net/admission.h"

#include <gtest/gtest.h>

#include "net/network.h"

namespace nu::net {
namespace {

using topo::FatTree;
using topo::FatTreeConfig;
using topo::FatTreePathProvider;

struct FatTreeFixture {
  FatTreeFixture()
      : ft(FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        network(ft.graph()) {}

  [[nodiscard]] flow::Flow MakeFlow(NodeId src, NodeId dst, Mbps demand) const {
    flow::Flow f;
    f.src = src;
    f.dst = dst;
    f.demand = demand;
    f.duration = 1.0;
    return f;
  }

  FatTree ft;
  FatTreePathProvider provider;
  Network network;
};

TEST(AdmissionTest, EmptyNetworkAdmitsEverything) {
  FatTreeFixture fx;
  EXPECT_TRUE(CanAdmit(fx.network, fx.provider, fx.ft.host(0), fx.ft.host(9),
                       100.0));
}

TEST(AdmissionTest, OverDemandRejected) {
  FatTreeFixture fx;
  EXPECT_FALSE(CanAdmit(fx.network, fx.provider, fx.ft.host(0), fx.ft.host(9),
                        100.1));
}

TEST(AdmissionTest, HostLinkIsTheBottleneck) {
  FatTreeFixture fx;
  // Saturate host 0's uplink with a flow to anywhere.
  const auto path = FindFeasiblePath(fx.network, fx.provider, fx.ft.host(0),
                                     fx.ft.host(9), 100.0);
  ASSERT_TRUE(path.has_value());
  fx.network.Place(fx.MakeFlow(fx.ft.host(0), fx.ft.host(9), 100.0), *path);
  // Now nothing can leave host 0 even though the fabric is mostly free.
  EXPECT_FALSE(
      CanAdmit(fx.network, fx.provider, fx.ft.host(0), fx.ft.host(5), 1.0));
  // Other hosts unaffected.
  EXPECT_TRUE(
      CanAdmit(fx.network, fx.provider, fx.ft.host(1), fx.ft.host(5), 100.0));
}

TEST(AdmissionTest, WidestSelectionSpreadsLoad) {
  FatTreeFixture fx;
  // Two same-pod, different-edge hosts: 2 candidate paths via the 2 aggs.
  const NodeId src = fx.ft.host(0);
  const NodeId dst = fx.ft.host(2);
  const auto p1 = FindFeasiblePath(fx.network, fx.provider, src, dst, 40.0,
                                   PathSelection::kWidest);
  ASSERT_TRUE(p1.has_value());
  fx.network.Place(fx.MakeFlow(src, dst, 40.0), *p1);
  const auto p2 = FindFeasiblePath(fx.network, fx.provider, src, dst, 40.0,
                                   PathSelection::kWidest);
  ASSERT_TRUE(p2.has_value());
  // Widest must avoid the loaded aggregation switch.
  EXPECT_NE(p1->nodes[2], p2->nodes[2]);
}

TEST(AdmissionTest, BestFitPacksTightly) {
  FatTreeFixture fx;
  const NodeId src = fx.ft.host(0);
  const NodeId dst = fx.ft.host(2);
  const auto p1 = FindFeasiblePath(fx.network, fx.provider, src, dst, 40.0,
                                   PathSelection::kBestFit);
  ASSERT_TRUE(p1.has_value());
  fx.network.Place(fx.MakeFlow(src, dst, 40.0), *p1);
  const auto p2 = FindFeasiblePath(fx.network, fx.provider, src, dst, 40.0,
                                   PathSelection::kBestFit);
  ASSERT_TRUE(p2.has_value());
  // Best-fit should reuse the already-loaded agg (residual 60 < 100).
  EXPECT_EQ(p1->nodes[2], p2->nodes[2]);
}

TEST(AdmissionTest, FirstFitDeterministic) {
  FatTreeFixture fx;
  const auto a = FindFeasiblePath(fx.network, fx.provider, fx.ft.host(0),
                                  fx.ft.host(8), 10.0,
                                  PathSelection::kFirstFit);
  const auto b = FindFeasiblePath(fx.network, fx.provider, fx.ft.host(0),
                                  fx.ft.host(8), 10.0,
                                  PathSelection::kFirstFit);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
}

TEST(AdmissionTest, LeastCongestedPathPrefersFewerDeficits) {
  FatTreeFixture fx;
  const NodeId src = fx.ft.host(0);
  const NodeId dst = fx.ft.host(2);
  const auto& candidates = fx.provider.Paths(src, dst);
  ASSERT_EQ(candidates.size(), 2u);
  // Congest candidate 0's middle hop (edge->agg link) with host 1's traffic.
  flow::Flow blocker;
  blocker.src = fx.ft.host(1);
  blocker.dst = fx.ft.host(2);
  blocker.demand = 95.0;
  blocker.duration = 1.0;
  // Build host1 -> edge0 -> agg(of candidate 0) -> edge1 -> host2.
  const NodeId agg0 = candidates[0].nodes[2];
  const std::array<NodeId, 5> seq{fx.ft.host(1), candidates[0].nodes[1], agg0,
                                  candidates[0].nodes[3], dst};
  fx.network.Place(std::move(blocker), fx.ft.graph().MakePath(seq));

  const auto& best =
      LeastCongestedPath(fx.network, fx.provider, src, dst, 50.0);
  EXPECT_NE(best.nodes[2], agg0);
}

}  // namespace
}  // namespace nu::net
