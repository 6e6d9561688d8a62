// Simulator under correlated (SRLG) group faults: a pod power event fires
// as ONE group incident (not per-element failures), strands every flow in
// the pod, and the victims recover once the group comes back — with the
// SRLG-specific recovery latencies reported separately. Fixed seeds
// reproduce group-fault runs bit-for-bit.
#include <gtest/gtest.h>

#include "fault/srlg.h"
#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

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

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

SimConfig SlowInstallConfig() {
  SimConfig config;
  config.cost_model.plan_time_per_flow = 0.001;
  config.cost_model.migration_rate = 10000.0;
  config.cost_model.install_time_per_flow = 1.0;  // faults hit mid-install
  config.seed = 7;
  config.guard.auditor = {.enabled = true,
                          .mode = guard::AuditMode::kFailFast,
                          .cadence = 1};
  return config;
}

/// Pod 0 loses power at t=0.5 for 2 s while two of its flows are still
/// installing.
SimConfig PodOutageConfig(const Fixture& fx) {
  SimConfig config = SlowInstallConfig();
  fault::FaultPlan& plan = config.faults.plan;
  std::size_t pod0 = fault::kNoGroup;
  for (const fault::SharedRiskGroup& group :
       fault::DeriveFatTreeSrlgs(fx.ft)) {
    const std::size_t idx = plan.AddGroup(group);
    if (group.name == "pod0") pod0 = idx;
  }
  plan.AddGroupOutage(0.5, 2.0, pod0);
  return config;
}

std::vector<update::UpdateEvent> PodFlows(const Fixture& fx) {
  std::vector<update::UpdateEvent> events;
  events.push_back(update::UpdateEvent(
      EventId{0}, 0.0,
      {fx.MakeFlow(0, 12, 10.0, 50.0), fx.MakeFlow(2, 13, 10.0, 50.0)}));
  return events;
}

TEST(SrlgSimTest, PodOutageIsOneGroupIncident) {
  Fixture fx;
  const SimConfig config = PodOutageConfig(fx);
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, PodFlows(fx));

  // One correlated incident — NOT four switch failures. The group counter
  // is the only failure counter that moves.
  EXPECT_EQ(result.fault_stats.group_faults, 1u);
  EXPECT_EQ(result.fault_stats.switch_failures, 0u);
  EXPECT_EQ(result.fault_stats.link_failures, 0u);
  // Both flows source in pod 0, so the sweep strands both.
  EXPECT_EQ(result.fault_stats.flows_killed, 2u);
  EXPECT_GE(result.fault_stats.events_replanned, 1u);
  EXPECT_EQ(result.report.group_faults, 1u);
}

TEST(SrlgSimTest, VictimsRecoverAfterGroupUpWithSrlgLatencies) {
  Fixture fx;
  const SimConfig config = PodOutageConfig(fx);
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, PodFlows(fx));

  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].status, metrics::TerminalStatus::kCompleted);
  // A pod power event leaves its hosts with NO surviving path: recovery can
  // only start once the group comes back at t=2.5, so every SRLG recovery
  // latency is at least the outage remaining after the fault.
  ASSERT_EQ(result.fault_stats.srlg_recovery_latency.count(), 2u);
  EXPECT_GE(result.fault_stats.srlg_recovery_latency.min(), 2.0);
  // SRLG recoveries are a subset of all recoveries, and they surface in the
  // report's dedicated columns.
  EXPECT_GE(result.fault_stats.recovery_latency.count(), 2u);
  EXPECT_GT(result.report.srlg_recovery_latency_mean, 0.0);
  EXPECT_GE(result.report.srlg_recovery_latency_p99,
            result.report.srlg_recovery_latency_mean);
}

TEST(SrlgSimTest, GroupFaultRunsAreDeterministic) {
  const auto run = [] {
    Fixture fx;
    SimConfig config = PodOutageConfig(fx);
    config.faults.flaky.failure_probability = 0.2;  // exercise the rng too
    config.faults.retry.max_attempts = 3;
    config.faults.retry.base_delay = 0.05;
    Simulator sim(fx.network, fx.provider, config);
    sched::FifoScheduler fifo;
    return sim.Run(fifo, PodFlows(fx));
  };
  const SimResult a = run();
  const SimResult b = run();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].completion, b.records[i].completion);
    EXPECT_EQ(a.records[i].replans, b.records[i].replans);
  }
  EXPECT_EQ(a.fault_stats.flows_killed, b.fault_stats.flows_killed);
  EXPECT_EQ(a.fault_stats.group_faults, b.fault_stats.group_faults);
  EXPECT_EQ(a.fault_stats.srlg_recovery_latency.count(),
            b.fault_stats.srlg_recovery_latency.count());
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(SrlgSimTest, AuditorStaysSilentAcrossGroupFaults) {
  Fixture fx;
  SimConfig config = PodOutageConfig(fx);
  config.guard.auditor.mode = guard::AuditMode::kLogAndCount;
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, PodFlows(fx));
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.guard_stats.audit_violations, 0u);
}

}  // namespace
}  // namespace nu::sim
