// Fault subsystem: deterministic fault plans, the injector's flaky-install
// sampling, victim computation / fault-state application on the network,
// and the rule-level flaky apply with rollback.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "consistent/two_phase.h"
#include "fault/flaky_apply.h"
#include "fault/injector.h"
#include "guard/auditor.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

namespace nu::fault {
namespace {

struct Fixture {
  Fixture()
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        network(ft.graph()) {}

  FlowId PlaceFlow(NodeId src, NodeId dst, Mbps demand,
                   std::size_t path_index = 0) {
    const auto& paths = provider.Paths(src, dst);
    flow::Flow f;
    f.src = src;
    f.dst = dst;
    f.demand = demand;
    f.duration = 10.0;
    return network.Place(std::move(f), paths.at(path_index));
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

TEST(FaultPlanTest, SpecsStaySortedByTime) {
  FaultPlan plan;
  plan.AddLinkDown(5.0, LinkId{3});
  plan.AddSwitchDown(1.0, NodeId{2});
  plan.AddLinkUp(3.0, LinkId{3});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.specs()[0].time, 1.0);
  EXPECT_DOUBLE_EQ(plan.specs()[1].time, 3.0);
  EXPECT_DOUBLE_EQ(plan.specs()[2].time, 5.0);
}

TEST(FaultPlanTest, EqualTimesKeepInsertionOrder) {
  FaultPlan plan;
  plan.AddLinkDown(2.0, LinkId{1});
  plan.AddLinkDown(2.0, LinkId{2});
  plan.AddLinkDown(2.0, LinkId{3});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.specs()[0].link, LinkId{1});
  EXPECT_EQ(plan.specs()[1].link, LinkId{2});
  EXPECT_EQ(plan.specs()[2].link, LinkId{3});
}

TEST(FaultPlanTest, OutageSchedulesDownThenUp) {
  FaultPlan plan;
  plan.AddLinkOutage(1.0, 4.0, LinkId{7});
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kLinkUp);
  EXPECT_DOUBLE_EQ(plan.specs()[1].time, 5.0);

  FaultPlan permanent;
  // A non-positive outage is a plan-build error; permanent failures are
  // spelled AddSwitchDown.
  EXPECT_THROW(permanent.AddSwitchOutage(1.0, 0.0, NodeId{3}),
               FaultPlanError);
  permanent.AddSwitchDown(1.0, NodeId{3});
  EXPECT_EQ(permanent.size(), 1u);
}

TEST(RandomLinkFaultPlanTest, DeterministicAndFabricOnly) {
  Fixture fx;
  RandomLinkFaultOptions options;
  options.failures = 3;

  Rng rng_a(11);
  Rng rng_b(11);
  const FaultPlan a = MakeRandomLinkFaultPlan(fx.ft.graph(), options, rng_a);
  const FaultPlan b = MakeRandomLinkFaultPlan(fx.ft.graph(), options, rng_b);
  ASSERT_EQ(a.size(), 6u);  // 3 outages = 3 downs + 3 ups
  ASSERT_EQ(a.size(), b.size());
  std::set<LinkId::rep_type> victims;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.specs()[i].link, b.specs()[i].link);
    EXPECT_EQ(a.specs()[i].kind, b.specs()[i].kind);
    const topo::Link& l = fx.ft.graph().link(a.specs()[i].link);
    EXPECT_NE(fx.ft.graph().node(l.src).role, topo::NodeRole::kHost);
    EXPECT_NE(fx.ft.graph().node(l.dst).role, topo::NodeRole::kHost);
    if (a.specs()[i].kind == FaultKind::kLinkDown) {
      victims.insert(a.specs()[i].link.value());
    }
  }
  EXPECT_EQ(victims.size(), 3u);  // distinct cables
}

TEST(FaultPlanValidationTest, RejectsNonPositiveOutages) {
  FaultPlan plan;
  EXPECT_THROW(plan.AddLinkOutage(1.0, 0.0, LinkId{1}), FaultPlanError);
  EXPECT_THROW(plan.AddLinkOutage(1.0, -2.0, LinkId{1}), FaultPlanError);
  EXPECT_THROW(plan.AddSwitchOutage(1.0, -1.0, NodeId{1}), FaultPlanError);
  EXPECT_THROW(plan.AddLinkDown(-0.5, LinkId{1}), FaultPlanError);
  EXPECT_TRUE(plan.empty());  // failed adds leave the plan untouched
}

TEST(FaultPlanValidationTest, RejectsInvalidIdsAtBuildTime) {
  FaultPlan plan;
  EXPECT_THROW(plan.AddLinkDown(1.0, LinkId::invalid()), FaultPlanError);
  EXPECT_THROW(plan.AddSwitchDown(1.0, NodeId::invalid()), FaultPlanError);
  EXPECT_THROW(plan.AddGroupDown(1.0, 0), FaultPlanError);  // no groups yet
}

TEST(FaultPlanValidationTest, RejectsEmptyAndMisnamedGroups) {
  FaultPlan plan;
  EXPECT_THROW(plan.AddGroup(SharedRiskGroup{}), FaultPlanError);
  SharedRiskGroup unnamed;
  unnamed.nodes.push_back(NodeId{1});
  EXPECT_THROW(plan.AddGroup(unnamed), FaultPlanError);
  SharedRiskGroup spaced;
  spaced.name = "pod 0";  // whitespace would break the text format
  spaced.nodes.push_back(NodeId{1});
  EXPECT_THROW(plan.AddGroup(spaced), FaultPlanError);
}

TEST(FaultPlanValidationTest, ValidateRejectsNonexistentTopologyIds) {
  Fixture fx;
  const auto last_link =
      static_cast<LinkId::rep_type>(fx.ft.graph().link_count());
  FaultPlan bad_link;
  bad_link.AddLinkDown(1.0, LinkId{last_link});
  EXPECT_THROW((void)bad_link.Validate(fx.ft.graph()), FaultPlanError);

  FaultPlan bad_node;
  bad_node.AddSwitchDown(
      1.0, NodeId{static_cast<NodeId::rep_type>(fx.ft.graph().node_count())});
  EXPECT_THROW((void)bad_node.Validate(fx.ft.graph()), FaultPlanError);

  FaultPlan bad_group;
  SharedRiskGroup group;
  group.name = "bogus";
  group.links.push_back(LinkId{last_link});
  bad_group.AddGroupDown(1.0, bad_group.AddGroup(group));
  EXPECT_THROW((void)bad_group.Validate(fx.ft.graph()), FaultPlanError);

  FaultPlan good;
  good.AddLinkOutage(1.0, 2.0, LinkId{0});
  EXPECT_NO_THROW((void)good.Validate(fx.ft.graph()));
}

TEST(FaultPlanTest, RollingDrainStaggersGroupMembers) {
  FaultPlan plan;
  SharedRiskGroup group;
  group.name = "batch";
  group.nodes = {NodeId{1}, NodeId{2}};
  group.links = {LinkId{5}};
  const std::size_t idx = plan.AddGroup(group);
  plan.AddRollingDrain(10.0, 0.5, 1.0, idx);
  // Each of the 3 members expands to a primitive down + up pair.
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kSwitchDown);
  EXPECT_EQ(plan.specs()[0].node, NodeId{1});
  EXPECT_DOUBLE_EQ(plan.specs()[0].time, 10.0);
  // Nodes first (declaration order), then links, `stagger` apart.
  EXPECT_DOUBLE_EQ(plan.specs()[1].time, 10.5);
  EXPECT_EQ(plan.specs()[1].node, NodeId{2});
  // At t=11.0 the first node's up (inserted earlier) precedes the link's
  // down — equal times keep insertion order.
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kSwitchUp);
  EXPECT_EQ(plan.specs()[2].node, NodeId{1});
  EXPECT_DOUBLE_EQ(plan.specs()[2].time, 11.0);
  const FaultSpec& link_down = plan.specs()[3];
  EXPECT_EQ(link_down.kind, FaultKind::kLinkDown);
  EXPECT_EQ(link_down.link, LinkId{5});
  EXPECT_DOUBLE_EQ(link_down.time, 11.0);
  EXPECT_EQ(plan.specs()[5].kind, FaultKind::kLinkUp);
  EXPECT_DOUBLE_EQ(plan.specs()[5].time, 12.0);
}

TEST(GroupFaultTest, GroupDownIsOneEpochBumpAcrossAllMembers) {
  Fixture fx;
  // Pod 0's switches plus one explicit fabric cable.
  SharedRiskGroup group;
  group.name = "pod0";
  group.nodes = {fx.ft.edge(0, 0), fx.ft.edge(0, 1), fx.ft.agg(0, 0),
                 fx.ft.agg(0, 1)};
  group.links = {fx.ft.graph().FindLink(fx.ft.agg(1, 0), fx.ft.core(0))};
  FaultPlan plan;
  const std::size_t idx = plan.AddGroup(group);
  plan.AddGroupOutage(1.0, 2.0, idx);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kGroupDown);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kGroupUp);

  const std::uint64_t before = fx.network.topology_epoch();
  ApplyFaultState(fx.network, plan.specs()[0], plan.groups());
  EXPECT_EQ(fx.network.topology_epoch(), before + 1);  // ONE transition
  for (NodeId node : group.nodes) EXPECT_FALSE(fx.network.NodeUp(node));
  for (LinkId link : group.links) EXPECT_FALSE(fx.network.LinkUp(link));

  ApplyFaultState(fx.network, plan.specs()[1], plan.groups());
  EXPECT_EQ(fx.network.topology_epoch(), before + 2);
  for (NodeId node : group.nodes) EXPECT_TRUE(fx.network.NodeUp(node));
  for (LinkId link : group.links) EXPECT_TRUE(fx.network.LinkUp(link));
}

TEST(GroupFaultTest, AffectedFlowsSweepsEveryMember) {
  Fixture fx;
  // One flow through pod 0's edge switch, one crossing the named cable,
  // one entirely outside the group.
  const FlowId inside = fx.PlaceFlow(fx.ft.host(0), fx.ft.host(2), 5.0);
  const FlowId outside = fx.PlaceFlow(fx.ft.host(8), fx.ft.host(9), 5.0);

  SharedRiskGroup group;
  group.name = "edge0";
  group.nodes = {fx.ft.edge(0, 0)};
  FaultPlan plan;
  plan.AddGroupDown(1.0, plan.AddGroup(group));

  const std::vector<FlowId> victims =
      AffectedFlows(fx.network, plan.specs()[0], plan.groups());
  EXPECT_NE(std::find(victims.begin(), victims.end(), inside), victims.end());
  EXPECT_EQ(std::find(victims.begin(), victims.end(), outside),
            victims.end());
}

TEST(InjectorTest, StormWindowOverridesBaselineModel) {
  FaultConfig config;
  // Healthy, jitter-free baseline: outside a storm every install succeeds
  // first try with latency factor exactly 1.
  config.retry.max_attempts = 2;
  config.retry.base_delay = 0.01;
  FlakyStorm storm;
  storm.start = 10.0;
  storm.duration = 5.0;
  storm.model.latency_jitter_frac = 0.5;  // jitter only inside the window
  config.storms.push_back(storm);
  FaultInjector injector(config, 99);

  // Outside the window the baseline model applies.
  EXPECT_DOUBLE_EQ(injector.SampleInstall(0.1, 0.0).latency_factor, 1.0);
  EXPECT_DOUBLE_EQ(injector.SampleInstall(0.1, 15.0).latency_factor,
                   1.0);  // end exclusive
  // Inside it, the storm's degraded model governs: jittered latency.
  const InstallTrial in_storm = injector.SampleInstall(0.1, 10.0);
  EXPECT_TRUE(in_storm.success);
  EXPECT_GT(in_storm.latency_factor, 1.0);
  EXPECT_LT(in_storm.latency_factor, 1.5);
  EXPECT_GT(injector.SampleInstall(0.1, 14.9).latency_factor, 1.0);
}

TEST(InjectorTest, DisabledModelPassesThrough) {
  FaultConfig config;  // flaky disabled
  FaultInjector injector(config, 42);
  const InstallTrial trial = injector.SampleInstall(0.5);
  EXPECT_TRUE(trial.success);
  EXPECT_EQ(trial.attempts, 1u);
  EXPECT_DOUBLE_EQ(trial.wasted_delay, 0.0);
  EXPECT_DOUBLE_EQ(trial.latency_factor, 1.0);
}

TEST(InjectorTest, SamplingIsDeterministicPerSeed) {
  FaultConfig config;
  config.flaky.failure_probability = 0.3;
  config.flaky.latency_jitter_frac = 0.2;
  FaultInjector a(config, 7);
  FaultInjector b(config, 7);
  for (int i = 0; i < 200; ++i) {
    const InstallTrial ta = a.SampleInstall(0.1);
    const InstallTrial tb = b.SampleInstall(0.1);
    EXPECT_EQ(ta.attempts, tb.attempts);
    EXPECT_EQ(ta.success, tb.success);
    EXPECT_DOUBLE_EQ(ta.wasted_delay, tb.wasted_delay);
    EXPECT_DOUBLE_EQ(ta.latency_factor, tb.latency_factor);
  }
}

TEST(InjectorTest, HighFailureRateEventuallyExhaustsRetries) {
  FaultConfig config;
  config.flaky.failure_probability = 0.9;
  config.retry.max_attempts = 3;
  FaultInjector injector(config, 13);
  std::size_t failures = 0;
  std::size_t retries = 0;
  for (int i = 0; i < 300; ++i) {
    const InstallTrial trial = injector.SampleInstall(0.1);
    EXPECT_LE(trial.attempts, 3u);
    if (!trial.success) {
      ++failures;
      EXPECT_EQ(trial.attempts, 3u);
      // Two failed attempt latencies plus two backoff waits were spent.
      EXPECT_GT(trial.wasted_delay, 0.2);
    }
    if (trial.attempts > 1) ++retries;
  }
  EXPECT_GT(failures, 0u);
  EXPECT_GT(retries, 0u);
}

TEST(InjectorTest, JitterStretchesLatencyWithinBounds) {
  FaultConfig config;
  config.flaky.latency_jitter_frac = 0.5;  // failures off: jitter only
  FaultInjector injector(config, 3);
  for (int i = 0; i < 100; ++i) {
    const InstallTrial trial = injector.SampleInstall(1.0);
    EXPECT_TRUE(trial.success);
    EXPECT_GE(trial.latency_factor, 1.0);
    EXPECT_LT(trial.latency_factor, 1.5);
  }
}

TEST(AffectedFlowsTest, LinkFaultStrandsBothDirections) {
  Fixture fx;
  const NodeId src = fx.ft.host(0);
  const NodeId dst = fx.ft.host(12);
  const FlowId forward = fx.PlaceFlow(src, dst, 10.0);
  const FlowId backward = fx.PlaceFlow(dst, src, 10.0);

  // Fail the first fabric link of the forward flow's path; the backward
  // flow's reverse path shares the cable only if it chose the mirrored
  // route, so assert on the forward flow and on determinism of the rest.
  const topo::Path& path = fx.network.PathOf(forward);
  FaultSpec spec;
  spec.kind = FaultKind::kLinkDown;
  spec.link = path.links[0];
  const auto victims = AffectedFlows(fx.network, spec);
  EXPECT_TRUE(std::find(victims.begin(), victims.end(), forward) !=
              victims.end());
  // Sorted ascending, no duplicates.
  EXPECT_TRUE(std::is_sorted(victims.begin(), victims.end()));
  EXPECT_TRUE(std::adjacent_find(victims.begin(), victims.end()) ==
              victims.end());

  // The host uplink is shared by both directions' endpoints: failing it
  // strands both flows.
  FaultSpec uplink;
  uplink.kind = FaultKind::kLinkDown;
  uplink.link = fx.ft.graph().FindLink(src, path.nodes[1]);
  const auto both = AffectedFlows(fx.network, uplink);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0], std::min(forward, backward));
  EXPECT_EQ(both[1], std::max(forward, backward));
}

TEST(AffectedFlowsTest, SwitchFaultStrandsEveryFlowThroughIt) {
  Fixture fx;
  const FlowId f = fx.PlaceFlow(fx.ft.host(0), fx.ft.host(12), 10.0);
  const topo::Path& path = fx.network.PathOf(f);
  FaultSpec spec;
  spec.kind = FaultKind::kSwitchDown;
  spec.node = path.nodes[path.nodes.size() / 2];  // a core/agg switch
  const auto victims = AffectedFlows(fx.network, spec);
  EXPECT_TRUE(std::find(victims.begin(), victims.end(), f) != victims.end());
}

TEST(AffectedFlowsTest, UpEventsStrandNothing) {
  Fixture fx;
  const FlowId f = fx.PlaceFlow(fx.ft.host(0), fx.ft.host(12), 10.0);
  const topo::Path& path = fx.network.PathOf(f);
  FaultSpec spec;
  spec.kind = FaultKind::kLinkUp;
  spec.link = path.links[0];
  EXPECT_TRUE(AffectedFlows(fx.network, spec).empty());
}

TEST(ApplyFaultStateTest, LinkFaultTakesDownBothDirectionsOfTheCable) {
  Fixture fx;
  const LinkId forward = fx.ft.graph().links()[0].id;
  const topo::Link& l = fx.ft.graph().link(forward);
  const LinkId reverse = fx.ft.graph().FindLink(l.dst, l.src);
  ASSERT_TRUE(reverse.valid());

  FaultSpec down;
  down.kind = FaultKind::kLinkDown;
  down.link = forward;
  ApplyFaultState(fx.network, down);
  EXPECT_FALSE(fx.network.LinkUp(forward));
  EXPECT_FALSE(fx.network.LinkUp(reverse));

  FaultSpec up = down;
  up.kind = FaultKind::kLinkUp;
  ApplyFaultState(fx.network, up);
  EXPECT_TRUE(fx.network.LinkUp(forward));
  EXPECT_TRUE(fx.network.LinkUp(reverse));
  EXPECT_EQ(fx.network.down_link_count(), 0u);
}

TEST(ApplyFaultStateTest, DoesNotRemoveStrandedFlows) {
  Fixture fx;
  const FlowId f = fx.PlaceFlow(fx.ft.host(0), fx.ft.host(12), 10.0);
  FaultSpec spec;
  spec.kind = FaultKind::kSwitchDown;
  spec.node = fx.network.PathOf(f).nodes[1];
  ApplyFaultState(fx.network, spec);
  EXPECT_TRUE(fx.network.HasFlow(f));  // victim fate is the caller's call
  EXPECT_GT(guard::Auditor().Audit(fx.network, {}), 0u);
  fx.network.Remove(f);
  EXPECT_EQ(guard::Auditor().Audit(fx.network, {}), 0u);
}

TEST(FlakyApplyTest, HealthyPipelineCommitsEverything) {
  Fixture fx;
  const FlowId flow{1};
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(12));
  consistent::RuleTable rules;
  ApplyAll(rules, consistent::PlanInitialInstall(flow, paths[0], 0));
  const auto schedule =
      consistent::PlanTwoPhaseReroute(flow, paths[0], paths[1], 0);

  FlakyInstallModel healthy;  // p = 0
  RetryPolicy retry;
  Rng rng(1);
  const FlakyApplyResult result =
      ApplyWithFaults(rules, schedule, healthy, retry, rng, 0.001);
  EXPECT_TRUE(result.committed);
  EXPECT_FALSE(result.rolled_back);
  EXPECT_EQ(result.applied_ops, schedule.size());
  EXPECT_EQ(result.retries, 0u);
  EXPECT_DOUBLE_EQ(result.elapsed,
                   0.001 * static_cast<double>(schedule.size()));
  EXPECT_EQ(rules.RuleCountForFlow(flow), paths[1].links.size());
}

TEST(FlakyApplyTest, ExhaustedInstallRollsBackToPreUpdateState) {
  Fixture fx;
  const FlowId flow{1};
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(12));
  const topo::Path& old_path = paths[0];
  const topo::Path& new_path = paths[1];
  const auto schedule =
      consistent::PlanTwoPhaseReroute(flow, old_path, new_path, 0);

  FlakyInstallModel flaky;
  flaky.failure_probability = 0.6;
  RetryPolicy retry;
  retry.max_attempts = 2;

  // Sweep seeds until one aborts; each aborted run must restore the exact
  // pre-update table and keep delivering on the old path.
  bool saw_rollback = false;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    consistent::RuleTable rules;
    ApplyAll(rules, consistent::PlanInitialInstall(flow, old_path, 0));
    Rng rng(seed);
    const FlakyApplyResult result =
        ApplyWithFaults(rules, schedule, flaky, retry, rng);
    if (!result.rolled_back) continue;
    saw_rollback = true;
    EXPECT_FALSE(result.committed);
    EXPECT_GT(result.retries, 0u);
    EXPECT_EQ(rules.RuleCountForFlow(flow), old_path.links.size());
    EXPECT_EQ(rules.IngressVersion(flow), 0u);
    const auto fwd = ForwardPacket(fx.ft.graph(), rules, flow,
                                   old_path.source(), old_path.destination());
    EXPECT_EQ(fwd.outcome, consistent::ForwardOutcome::kDelivered);
    EXPECT_EQ(fwd.hops, old_path.nodes);
  }
  EXPECT_TRUE(saw_rollback);
}

TEST(FlakyApplyTest, PastCommitPointRollsForwardToNewPath) {
  // Installs only fail in phase 1; with the flip applied the remaining ops
  // are flips/removes, which never fail — so any run that reaches the flip
  // must commit and land on the new path.
  Fixture fx;
  const FlowId flow{2};
  const auto& paths = fx.provider.Paths(fx.ft.host(1), fx.ft.host(13));
  const auto schedule =
      consistent::PlanTwoPhaseReroute(flow, paths[0], paths[1], 0);

  FlakyInstallModel flaky;
  flaky.failure_probability = 0.3;
  RetryPolicy retry;
  retry.max_attempts = 5;

  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    consistent::RuleTable rules;
    ApplyAll(rules, consistent::PlanInitialInstall(flow, paths[0], 0));
    Rng rng(seed);
    const FlakyApplyResult result =
        ApplyWithFaults(rules, schedule, flaky, retry, rng);
    ASSERT_TRUE(result.committed != result.rolled_back);
    if (!result.committed) continue;
    const auto fwd = ForwardPacket(fx.ft.graph(), rules, flow,
                                   paths[1].source(), paths[1].destination());
    EXPECT_EQ(fwd.outcome, consistent::ForwardOutcome::kDelivered);
    EXPECT_EQ(fwd.hops, paths[1].nodes);
  }
}

}  // namespace
}  // namespace nu::fault
