#include "update/transition.h"

#include <gtest/gtest.h>

#include <array>

#include "common/rng.h"
#include "guard/auditor.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "update/event_generator.h"

namespace nu::update {
namespace {

/// Three parallel 2-hop routes a-m{0,1,2}-b, capacity 10 each.
struct ParallelRoutes {
  ParallelRoutes() {
    a = graph.AddNode(topo::NodeRole::kHost);
    b = graph.AddNode(topo::NodeRole::kHost);
    for (int i = 0; i < 3; ++i) {
      const NodeId m = graph.AddNode(topo::NodeRole::kGeneric);
      graph.AddBidirectional(a, m, 10.0);
      graph.AddBidirectional(m, b, 10.0);
      mids.push_back(m);
    }
  }

  [[nodiscard]] topo::Path Route(int i) const {
    const std::array<NodeId, 3> seq{a, mids[static_cast<std::size_t>(i)], b};
    return graph.MakePath(seq);
  }

  FlowId PlaceOn(net::Network& net, int route, Mbps demand) const {
    flow::Flow f;
    f.src = a;
    f.dst = b;
    f.demand = demand;
    f.duration = 1.0;
    return net.Place(std::move(f), Route(route));
  }

  topo::Graph graph;
  NodeId a, b;
  std::vector<NodeId> mids;
};

TEST(TransitionTest, TrivialWhenTargetsAlreadyCurrent) {
  ParallelRoutes pr;
  net::Network net(pr.graph);
  const FlowId f = pr.PlaceOn(net, 0, 5.0);
  TargetConfig targets{{f.value(), pr.Route(0)}};
  const topo::KspPathProvider provider(pr.graph, 3);
  const TransitionPlan plan = PlanTransition(net, provider, targets);
  EXPECT_TRUE(plan.complete);
  EXPECT_TRUE(plan.steps.empty());
}

TEST(TransitionTest, IndependentMovesOrderedGreedily) {
  ParallelRoutes pr;
  net::Network net(pr.graph);
  const FlowId f1 = pr.PlaceOn(net, 0, 5.0);
  const FlowId f2 = pr.PlaceOn(net, 1, 5.0);
  TargetConfig targets{{f1.value(), pr.Route(2)},
                       {f2.value(), pr.Route(0)}};
  const topo::KspPathProvider provider(pr.graph, 3);
  const TransitionPlan plan = PlanTransition(net, provider, targets);
  ASSERT_TRUE(plan.complete);
  EXPECT_EQ(plan.DetourCount(), 0u);
  ApplyTransition(net, plan);
  EXPECT_EQ(net.PathOf(f1), pr.Route(2));
  EXPECT_EQ(net.PathOf(f2), pr.Route(0));
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
}

TEST(TransitionTest, SwapDeadlockResolvedByDetour) {
  // f1 and f2 must exchange routes 0 and 1; each fully occupies its route,
  // so neither direct move fits — the classic consistent-migration
  // deadlock. Route 2 provides the escape hatch.
  ParallelRoutes pr;
  net::Network net(pr.graph);
  const FlowId f1 = pr.PlaceOn(net, 0, 10.0);
  const FlowId f2 = pr.PlaceOn(net, 1, 10.0);
  TargetConfig targets{{f1.value(), pr.Route(1)},
                       {f2.value(), pr.Route(0)}};
  const topo::KspPathProvider provider(pr.graph, 3);
  const TransitionPlan plan = PlanTransition(net, provider, targets);
  ASSERT_TRUE(plan.complete);
  EXPECT_GE(plan.DetourCount(), 1u);
  ApplyTransition(net, plan);
  EXPECT_EQ(net.PathOf(f1), pr.Route(1));
  EXPECT_EQ(net.PathOf(f2), pr.Route(0));
  EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
}

TEST(TransitionTest, SwapWithoutDetoursFails) {
  ParallelRoutes pr;
  net::Network net(pr.graph);
  const FlowId f1 = pr.PlaceOn(net, 0, 10.0);
  const FlowId f2 = pr.PlaceOn(net, 1, 10.0);
  // Occupy route 2 so no escape exists even with detours allowed.
  pr.PlaceOn(net, 2, 10.0);
  TargetConfig targets{{f1.value(), pr.Route(1)},
                       {f2.value(), pr.Route(0)}};
  const topo::KspPathProvider provider(pr.graph, 3);
  const TransitionPlan plan = PlanTransition(net, provider, targets);
  EXPECT_FALSE(plan.complete);
  EXPECT_EQ(plan.stuck.size(), 2u);

  TransitionOptions no_detours;
  no_detours.allow_detours = false;
  net::Network net2(pr.graph);
  const FlowId g1 = pr.PlaceOn(net2, 0, 10.0);
  const FlowId g2 = pr.PlaceOn(net2, 1, 10.0);
  TargetConfig targets2{{g1.value(), pr.Route(1)},
                        {g2.value(), pr.Route(0)}};
  const TransitionPlan plan2 =
      PlanTransition(net2, provider, targets2, no_detours);
  EXPECT_FALSE(plan2.complete);
}

TEST(TransitionTest, EveryStepFeasibleWhenReplayed) {
  ParallelRoutes pr;
  net::Network net(pr.graph);
  const FlowId f1 = pr.PlaceOn(net, 0, 10.0);
  const FlowId f2 = pr.PlaceOn(net, 1, 10.0);
  TargetConfig targets{{f1.value(), pr.Route(1)},
                       {f2.value(), pr.Route(0)}};
  const topo::KspPathProvider provider(pr.graph, 3);
  const TransitionPlan plan = PlanTransition(net, provider, targets);
  ASSERT_TRUE(plan.complete);
  // Replay one step at a time; invariants must hold at every intermediate
  // state (congestion-free transition).
  for (const TransitionStep& step : plan.steps) {
    ASSERT_TRUE(net.CanReroute(step.flow, step.path));
    net.Reroute(step.flow, step.path);
    ASSERT_EQ(guard::Auditor().Audit(net, {}), 0u);
  }
}

TEST(NodeDrainTest, DrainsCoreSwitchCongestionFree) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  const topo::FatTreePathProvider provider(ft);
  net::Network net(ft.graph());
  Rng rng(606);
  // Load the fabric; some flows cross core(0).
  for (int i = 0; i < 60; ++i) {
    const NodeId src = ft.host(rng.Index(ft.host_count()));
    NodeId dst = ft.host(rng.Index(ft.host_count()));
    if (src == dst) continue;
    const auto& paths = provider.Paths(src, dst);
    const topo::Path& path = paths[rng.Index(paths.size())];
    const double demand = rng.Uniform(5.0, 30.0);
    if (!net.CanPlace(demand, path)) continue;
    flow::Flow f;
    f.src = src;
    f.dst = dst;
    f.demand = demand;
    f.duration = 1.0;
    net.Place(std::move(f), path);
  }
  const NodeId core = ft.core(0);
  const std::size_t crossing = FlowsThroughNode(net, core).size();
  ASSERT_GT(crossing, 0u) << "fixture never loaded the core";

  const TransitionPlan plan = PlanNodeDrain(net, provider, core);
  EXPECT_TRUE(plan.complete);
  // Apply step-by-step: congestion-free at every intermediate state.
  for (const TransitionStep& step : plan.steps) {
    ASSERT_TRUE(net.CanReroute(step.flow, step.path));
    net.Reroute(step.flow, step.path);
    ASSERT_EQ(guard::Auditor().Audit(net, {}), 0u);
  }
  EXPECT_TRUE(FlowsThroughNode(net, core).empty());
}

TEST(NodeDrainTest, ReportsUnmovableFlows) {
  // Flows behind an edge switch cannot avoid it: draining edge(0,0) must
  // report the host-0/1 flows as stuck instead of moving them.
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  const topo::FatTreePathProvider provider(ft);
  net::Network net(ft.graph());
  flow::Flow f;
  f.src = ft.host(0);
  f.dst = ft.host(8);
  f.demand = 10.0;
  f.duration = 1.0;
  net.Place(std::move(f), provider.Paths(ft.host(0), ft.host(8))[0]);

  const TransitionPlan plan = PlanNodeDrain(net, provider, ft.edge(0, 0));
  EXPECT_FALSE(plan.complete);
  ASSERT_EQ(plan.stuck.size(), 1u);
  EXPECT_TRUE(plan.steps.empty());
}

TEST(TransitionPropertyTest, RandomTargetsOnFatTreeAreSound) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  const topo::FatTreePathProvider provider(ft);
  Rng rng(505);
  for (int trial = 0; trial < 15; ++trial) {
    net::Network net(ft.graph());
    // Random placed flows with random alternate targets.
    TargetConfig targets;
    for (int i = 0; i < 25; ++i) {
      const NodeId src = ft.host(rng.Index(ft.host_count()));
      NodeId dst = ft.host(rng.Index(ft.host_count()));
      if (src == dst) continue;
      const auto& paths = provider.Paths(src, dst);
      const topo::Path& initial = paths[rng.Index(paths.size())];
      const double demand = rng.Uniform(5.0, 40.0);
      if (!net.CanPlace(demand, initial)) continue;
      flow::Flow f;
      f.src = src;
      f.dst = dst;
      f.demand = demand;
      f.duration = 1.0;
      const FlowId id = net.Place(std::move(f), initial);
      targets[id.value()] = paths[rng.Index(paths.size())];
    }
    const TransitionPlan plan = PlanTransition(net, provider, targets);
    // Sound regardless of completeness: applying must keep invariants and
    // leave completed flows on their targets.
    ApplyTransition(net, plan);
    EXPECT_EQ(guard::Auditor().Audit(net, {}), 0u);
    if (plan.complete) {
      for (const auto& [rep, target] : targets) {
        EXPECT_EQ(net.PathOf(FlowId{rep}), target);
      }
    } else {
      for (FlowId id : plan.stuck) {
        EXPECT_TRUE(targets.contains(id.value()));
      }
    }
  }
}

}  // namespace
}  // namespace nu::update
