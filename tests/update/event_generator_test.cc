#include "update/event_generator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "guard/auditor.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "trace/benson.h"
#include "update/planner.h"

namespace nu::update {
namespace {

struct Fixture {
  Fixture()
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 1000.0}),
        provider(ft),
        network(ft.graph()),
        flows(ft.hosts(), Rng(11)) {}

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
  trace::BensonGenerator flows;
};

TEST(EventGeneratorTest, FlowCountWithinRange) {
  Fixture fx;
  EventGenerator gen(fx.flows, Rng(1));
  SyntheticEventConfig config;
  config.min_flows = 10;
  config.max_flows = 100;
  for (int i = 0; i < 50; ++i) {
    const UpdateEvent e = gen.Next(0.0, config);
    EXPECT_GE(e.flow_count(), 10u);
    EXPECT_LE(e.flow_count(), 100u);
  }
}

TEST(EventGeneratorTest, IdsUniqueAndIncreasing) {
  Fixture fx;
  EventGenerator gen(fx.flows, Rng(2));
  SyntheticEventConfig config;
  config.min_flows = 1;
  config.max_flows = 2;
  EventId last = gen.Next(0.0, config).id();
  for (int i = 0; i < 20; ++i) {
    const EventId id = gen.Next(0.0, config).id();
    EXPECT_GT(id, last);
    last = id;
  }
}

TEST(EventGeneratorTest, BatchAtTimeZero) {
  Fixture fx;
  EventGenerator gen(fx.flows, Rng(3));
  const auto events = gen.Batch(10, SyntheticEventConfig{});
  ASSERT_EQ(events.size(), 10u);
  for (const UpdateEvent& e : events) {
    EXPECT_DOUBLE_EQ(e.arrival_time(), 0.0);
  }
}

TEST(EventGeneratorTest, BatchWithInterarrival) {
  Fixture fx;
  EventGenerator gen(fx.flows, Rng(4));
  const auto events = gen.Batch(20, SyntheticEventConfig{}, 5.0);
  Seconds prev = -1.0;
  for (const UpdateEvent& e : events) {
    EXPECT_GT(e.arrival_time(), prev);
    prev = e.arrival_time();
  }
  EXPECT_GT(events.back().arrival_time(), 0.0);
}

TEST(FlowsThroughNodeTest, FindsCrossingFlows) {
  Fixture fx;
  // Place an inter-pod flow; it crosses exactly one core.
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(8));
  flow::Flow f;
  f.src = fx.ft.host(0);
  f.dst = fx.ft.host(8);
  f.demand = 10.0;
  f.duration = 1.0;
  fx.network.Place(std::move(f), paths[0]);
  const NodeId core = paths[0].nodes[3];
  EXPECT_EQ(FlowsThroughNode(fx.network, core).size(), 1u);
  // A core not on the path sees nothing.
  const NodeId other_core = paths[1].nodes[3];
  EXPECT_TRUE(FlowsThroughNode(fx.network, other_core).empty());
}

TEST(SwitchUpgradeEventTest, ReplacementsMatchOriginals) {
  Fixture fx;
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(8));
  for (int i = 0; i < 3; ++i) {
    flow::Flow f;
    f.src = fx.ft.host(0);
    f.dst = fx.ft.host(8);
    f.demand = 10.0 + i;
    f.duration = 2.0;
    fx.network.Place(std::move(f), paths[0]);
  }
  const NodeId core = paths[0].nodes[3];
  const UpdateEvent event =
      MakeSwitchUpgradeEvent(EventId{1}, 0.0, fx.network, core);
  EXPECT_EQ(event.kind(), EventKind::kSwitchUpgrade);
  EXPECT_EQ(event.flow_count(), 3u);
  EXPECT_DOUBLE_EQ(event.TotalDemand(), 10.0 + 11.0 + 12.0);
}

TEST(SwitchUpgradeEventTest, EndToEndUpgradeDrainsSwitch) {
  Fixture fx;
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(8));
  for (int i = 0; i < 4; ++i) {
    flow::Flow f;
    f.src = fx.ft.host(0);
    f.dst = fx.ft.host(8);
    f.demand = 20.0;
    f.duration = 2.0;
    fx.network.Place(std::move(f), paths[0]);
  }
  const NodeId core = paths[0].nodes[3];
  const auto affected = FlowsThroughNode(fx.network, core);
  const UpdateEvent event =
      MakeSwitchUpgradeEvent(EventId{1}, 0.0, fx.network, core);
  RemoveFlows(fx.network, affected);
  EXPECT_TRUE(FlowsThroughNode(fx.network, core).empty());

  // Re-place the replacement flows avoiding the upgraded core.
  const topo::NodeAvoidingPathProvider avoiding(fx.provider, core);
  const EventPlanner planner(avoiding);
  const ExecutionResult result = planner.Execute(fx.network, event);
  EXPECT_TRUE(result.plan.fully_feasible);
  EXPECT_TRUE(FlowsThroughNode(fx.network, core).empty());
  EXPECT_EQ(guard::Auditor().Audit(fx.network, {}), 0u);
}

TEST(SwitchFailureEventTest, ReplacesEveryFlowThroughTheDeadSwitch) {
  Fixture fx;
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(8));
  for (int i = 0; i < 3; ++i) {
    flow::Flow f;
    f.src = fx.ft.host(0);
    f.dst = fx.ft.host(8);
    f.demand = 10.0 + i;
    f.duration = 2.0;
    fx.network.Place(std::move(f), paths[0]);
  }
  const NodeId core = paths[0].nodes[3];
  const UpdateEvent event =
      MakeSwitchFailureEvent(EventId{5}, 1.5, fx.network, core);
  EXPECT_EQ(event.kind(), EventKind::kFailureReroute);
  EXPECT_DOUBLE_EQ(event.arrival_time(), 1.5);
  EXPECT_EQ(event.flow_count(), 3u);
  EXPECT_DOUBLE_EQ(event.TotalDemand(), 10.0 + 11.0 + 12.0);
}

TEST(SwitchFailureEventDeathTest, RejectsSwitchNothingCrosses) {
  Fixture fx;
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(8));
  const NodeId idle_core = paths[1].nodes[3];
  EXPECT_DEATH(MakeSwitchFailureEvent(EventId{6}, 0.0, fx.network, idle_core),
               "Precondition");
}

TEST(LinkFailureEventTest, ReplacesFlowsOnBothDirections) {
  Fixture fx;
  // Forward flow host0->host8 via core paths[0]; reverse flow host8->host0
  // through the same cable.
  const auto& fwd_paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(8));
  flow::Flow fwd;
  fwd.src = fx.ft.host(0);
  fwd.dst = fx.ft.host(8);
  fwd.demand = 10.0;
  fwd.duration = 2.0;
  fx.network.Place(std::move(fwd), fwd_paths[0]);

  // The agg->core link of that path.
  const LinkId cable = fwd_paths[0].links[2];
  const topo::Link& l = fx.ft.graph().link(cable);
  const LinkId reverse = fx.ft.graph().FindLink(l.dst, l.src);
  // A flow using the reverse direction: host8 -> host0 via the same core.
  for (const topo::Path& p :
       fx.provider.Paths(fx.ft.host(8), fx.ft.host(0))) {
    if (std::find(p.links.begin(), p.links.end(), reverse) != p.links.end()) {
      flow::Flow rev;
      rev.src = fx.ft.host(8);
      rev.dst = fx.ft.host(0);
      rev.demand = 5.0;
      rev.duration = 2.0;
      fx.network.Place(std::move(rev), p);
      break;
    }
  }

  EXPECT_EQ(FlowsThroughLink(fx.network, cable).size(), 2u);
  const UpdateEvent event =
      MakeLinkFailureEvent(EventId{3}, 0.0, fx.network, cable);
  EXPECT_EQ(event.kind(), EventKind::kFailureReroute);
  EXPECT_EQ(event.flow_count(), 2u);
  EXPECT_DOUBLE_EQ(event.TotalDemand(), 15.0);
}

TEST(LinkFailureEventTest, EndToEndRerouteAvoidsFailedCable) {
  Fixture fx;
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(8));
  for (int i = 0; i < 3; ++i) {
    flow::Flow f;
    f.src = fx.ft.host(0);
    f.dst = fx.ft.host(8);
    f.demand = 20.0;
    f.duration = 2.0;
    fx.network.Place(std::move(f), paths[0]);
  }
  const LinkId cable = paths[0].links[2];
  const auto affected = FlowsThroughLink(fx.network, cable);
  const UpdateEvent event =
      MakeLinkFailureEvent(EventId{4}, 0.0, fx.network, cable);
  RemoveFlows(fx.network, affected);

  const topo::LinkAvoidingPathProvider avoiding(fx.provider, cable);
  const EventPlanner planner(avoiding);
  const ExecutionResult result = planner.Execute(fx.network, event);
  EXPECT_TRUE(result.plan.fully_feasible);
  EXPECT_TRUE(FlowsThroughLink(fx.network, cable).empty());
  EXPECT_EQ(guard::Auditor().Audit(fx.network, {}), 0u);
}

TEST(VmMigrationEventTest, StreamsSizedByVolume) {
  const VmMigrationConfig config{
      .streams = 4, .stream_demand = 100.0, .vm_volume = 8000.0};
  const UpdateEvent event = MakeVmMigrationEvent(
      EventId{2}, 1.0, NodeId{0}, NodeId{5}, config);
  EXPECT_EQ(event.kind(), EventKind::kVmMigration);
  EXPECT_EQ(event.flow_count(), 4u);
  // 8000 Mb over 4 x 100 Mbps = 20 s each.
  for (const flow::Flow& f : event.flows()) {
    EXPECT_DOUBLE_EQ(f.duration, 20.0);
    EXPECT_DOUBLE_EQ(f.demand, 100.0);
    EXPECT_EQ(f.src, NodeId{0});
    EXPECT_EQ(f.dst, NodeId{5});
  }
  EXPECT_DOUBLE_EQ(event.TotalVolume(), 8000.0);
}

TEST(VmMigrationEventDeathTest, RejectsSameHost) {
  EXPECT_DEATH(MakeVmMigrationEvent(EventId{1}, 0.0, NodeId{0}, NodeId{0},
                                    VmMigrationConfig{}),
               "Precondition");
}

}  // namespace
}  // namespace nu::update
