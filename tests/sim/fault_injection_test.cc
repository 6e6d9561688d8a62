// Simulator under fault injection: mid-round link/switch failures strand
// in-flight update flows and force replanning on surviving paths; flaky
// installs retry and abort; fixed seeds reproduce runs bit-for-bit.
#include <gtest/gtest.h>

#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "update/planner.h"

namespace nu::sim {
namespace {

struct Fixture {
  Fixture()
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        network(ft.graph()) {}

  [[nodiscard]] flow::Flow MakeFlow(std::size_t src, std::size_t dst,
                                    Mbps demand, Seconds duration) const {
    flow::Flow f;
    f.src = ft.host(src);
    f.dst = ft.host(dst);
    f.demand = demand;
    f.duration = duration;
    return f;
  }

  [[nodiscard]] update::UpdateEvent Event(
      std::uint64_t id, Seconds arrival, std::vector<flow::Flow> flows) const {
    return update::UpdateEvent(EventId{id}, arrival, std::move(flows));
  }

  /// The path the simulator's planner will choose for `flow` on the empty
  /// network — lets tests aim a fault at a link the flow actually uses.
  [[nodiscard]] topo::Path PlannedPath(const flow::Flow& flow,
                                       const SimConfig& config) const {
    net::Network copy = network;
    const update::EventPlanner planner(provider, config.migration_options,
                                       config.path_selection);
    Mbps migrated = 0.0;
    const auto placed = planner.PlaceFlow(copy, flow, &migrated);
    NU_CHECK(placed.has_value());
    return copy.PathOf(*placed);
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

SimConfig SlowInstallConfig() {
  SimConfig config;
  config.cost_model.plan_time_per_flow = 0.001;
  config.cost_model.migration_rate = 10000.0;
  config.cost_model.install_time_per_flow = 1.0;  // faults can hit mid-install
  config.seed = 7;
  config.guard.auditor = {.enabled = true,
                          .mode = guard::AuditMode::kFailFast,
                          .cadence = 1};
  return config;
}

TEST(FaultInjectionTest, MidInstallLinkFailureForcesReplanning) {
  Fixture fx;
  SimConfig config = SlowInstallConfig();
  const flow::Flow flow = fx.MakeFlow(0, 12, 10.0, 50.0);
  // Fail a fabric link of the path the planner will pick, while the
  // install (1 s) is still in flight.
  const topo::Path planned = fx.PlannedPath(flow, config);
  config.faults.plan.AddLinkDown(0.5, planned.links[1]);

  std::vector<update::UpdateEvent> events;
  events.push_back(fx.Event(0, 0.0, {flow}));
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.fault_stats.link_failures, 1u);
  EXPECT_EQ(result.fault_stats.flows_killed, 1u);
  EXPECT_EQ(result.fault_stats.events_replanned, 1u);
  EXPECT_EQ(result.records[0].replans, 1u);
  EXPECT_EQ(result.forced_placements, 0u);  // surviving paths existed
  // The replacement was re-placed at the fault time and reinstalled one
  // install latency later.
  ASSERT_EQ(result.fault_stats.recovery_latency.count(), 1u);
  EXPECT_NEAR(result.fault_stats.recovery_latency.mean(), 1.0, 1e-9);
  EXPECT_NEAR(result.records[0].completion, 1.5, 1e-6);
  EXPECT_EQ(result.report.events_replanned, 1u);
}

TEST(FaultInjectionTest, SwitchFailureStrandsAndRecovers) {
  Fixture fx;
  SimConfig config = SlowInstallConfig();
  const flow::Flow flow = fx.MakeFlow(0, 12, 10.0, 50.0);
  const topo::Path planned = fx.PlannedPath(flow, config);
  // Kill the aggregation switch (second node) mid-install; the pod has a
  // second aggregation switch, so a surviving path exists.
  config.faults.plan.AddSwitchDown(0.5, planned.nodes[2]);

  std::vector<update::UpdateEvent> events;
  events.push_back(fx.Event(0, 0.0, {flow}));
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  EXPECT_EQ(result.fault_stats.switch_failures, 1u);
  EXPECT_EQ(result.fault_stats.flows_killed, 1u);
  EXPECT_EQ(result.fault_stats.events_replanned, 1u);
  EXPECT_EQ(result.forced_placements, 0u);
}

TEST(FaultInjectionTest, FaultAfterCompletionKillsWithoutReplanning) {
  Fixture fx;
  SimConfig config = SlowInstallConfig();
  const flow::Flow flow = fx.MakeFlow(0, 12, 10.0, 50.0);
  const topo::Path planned = fx.PlannedPath(flow, config);
  // Event 0's install finishes ~1.0 s after exec start; fail its link after
  // that: the event is complete, so its flow just dies — no replanning, no
  // re-deferral. Event 1 (hosts in other pods, disjoint from the dead link)
  // keeps the simulation alive past the fault time.
  config.faults.plan.AddLinkDown(2.0, planned.links[1]);

  std::vector<update::UpdateEvent> events;
  events.push_back(fx.Event(0, 0.0, {flow}));
  events.push_back(fx.Event(1, 3.0, {fx.MakeFlow(4, 8, 10.0, 50.0)}));
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  EXPECT_EQ(result.fault_stats.flows_killed, 1u);
  EXPECT_EQ(result.fault_stats.events_replanned, 0u);
  EXPECT_EQ(result.fault_stats.recovery_latency.count(), 0u);
  EXPECT_NEAR(result.records[0].completion, result.records[0].exec_start + 1.0,
              1e-6);
}

TEST(FaultInjectionTest, FlakyInstallsRetryAndAbort) {
  Fixture fx;
  SimConfig config = SlowInstallConfig();
  config.cost_model.install_time_per_flow = 0.05;
  config.faults.flaky.failure_probability = 0.7;
  config.faults.flaky.latency_jitter_frac = 0.2;
  config.faults.retry.max_attempts = 2;
  config.faults.retry.base_delay = 0.01;

  std::vector<update::UpdateEvent> events;
  std::vector<flow::Flow> flows;
  for (std::size_t i = 0; i < 6; ++i) {
    flows.push_back(fx.MakeFlow(i, 8 + i, 10.0, 5.0));
  }
  events.push_back(fx.Event(0, 0.0, std::move(flows)));
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_GT(result.fault_stats.installs_attempted, 0u);
  EXPECT_GT(result.fault_stats.installs_retried, 0u);
  EXPECT_GT(result.fault_stats.installs_failed, 0u);
  EXPECT_GT(result.fault_stats.events_aborted, 0u);
  EXPECT_EQ(result.records[0].aborts, result.fault_stats.events_aborted);
  // Aborted flows recovered: their disruption -> reinstall latencies exist.
  EXPECT_GT(result.fault_stats.recovery_latency.count(), 0u);
  // Counters agree: every attempt beyond a batch's first is a retry.
  EXPECT_GE(result.fault_stats.installs_attempted,
            result.fault_stats.installs_retried);
  EXPECT_EQ(result.report.installs_retried,
            result.fault_stats.installs_retried);
}

TEST(FaultInjectionTest, FixedSeedFaultRunsAreBitReproducible) {
  Fixture fx;
  SimConfig config = SlowInstallConfig();
  config.cost_model.install_time_per_flow = 0.2;
  config.faults.flaky.failure_probability = 0.3;
  config.faults.flaky.latency_jitter_frac = 0.25;
  const flow::Flow probe = fx.MakeFlow(0, 12, 10.0, 40.0);
  const topo::Path planned = fx.PlannedPath(probe, config);
  config.faults.plan.AddLinkOutage(0.3, 2.0, planned.links[1]);

  auto run = [&] {
    std::vector<update::UpdateEvent> events;
    for (std::uint64_t i = 0; i < 4; ++i) {
      events.push_back(fx.Event(i, 0.0,
                                {fx.MakeFlow(i, 8 + i, 10.0, 40.0),
                                 fx.MakeFlow(i + 4, 12 + i, 10.0, 40.0)}));
    }
    Simulator sim(fx.network, fx.provider, config);
    sched::FifoScheduler fifo;
    return sim.Run(fifo, events);
  };

  const SimResult a = run();
  const SimResult b = run();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].event, b.records[i].event);
    EXPECT_DOUBLE_EQ(a.records[i].completion, b.records[i].completion);
    EXPECT_DOUBLE_EQ(a.records[i].exec_start, b.records[i].exec_start);
    EXPECT_DOUBLE_EQ(a.records[i].cost, b.records[i].cost);
    EXPECT_EQ(a.records[i].aborts, b.records[i].aborts);
    EXPECT_EQ(a.records[i].replans, b.records[i].replans);
  }
  EXPECT_EQ(a.fault_stats.installs_attempted,
            b.fault_stats.installs_attempted);
  EXPECT_EQ(a.fault_stats.installs_retried, b.fault_stats.installs_retried);
  EXPECT_EQ(a.fault_stats.flows_killed, b.fault_stats.flows_killed);
  EXPECT_DOUBLE_EQ(a.report.makespan, b.report.makespan);
  EXPECT_DOUBLE_EQ(a.report.recovery_latency_mean,
                   b.report.recovery_latency_mean);
}

TEST(FaultInjectionTest, LinkOutageRecoversCapacityForDeferredFlows) {
  // Saturate the only surviving capacity so the replanned victim must wait
  // for the link-up before it can reinstall.
  Fixture fx;
  SimConfig config = SlowInstallConfig();
  const flow::Flow flow = fx.MakeFlow(0, 12, 10.0, 50.0);
  const topo::Path planned = fx.PlannedPath(flow, config);
  config.faults.plan.AddLinkOutage(0.5, 3.0, planned.links[1]);

  std::vector<update::UpdateEvent> events;
  events.push_back(fx.Event(0, 0.0, {flow}));
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  // Whether the flow replans around the outage or waits it out, the run
  // must finish consistently with the counters agreeing.
  EXPECT_EQ(result.fault_stats.link_failures, 1u);
  EXPECT_EQ(result.fault_stats.flows_killed, 1u);
  EXPECT_EQ(result.records.size(), 1u);
}

}  // namespace
}  // namespace nu::sim
