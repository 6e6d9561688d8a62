// Soak test: run every scheduler (and the flow-level baseline) on moderate
// workloads with full invariant validation turned on — the network's
// congestion-free accounting is re-verified from scratch after every
// occurrence batch, under churn, migrations, co-scheduling, and deferred
// retries all at once.
#include <gtest/gtest.h>

#include "exp/runner.h"
#include "fault/fault_plan.h"

namespace nu::exp {
namespace {

ExperimentConfig SoakConfig(std::uint64_t seed, bool churn) {
  ExperimentConfig config;
  config.fat_tree_k = 4;
  config.utilization = 0.7;
  config.event_count = 12;
  config.min_flows_per_event = 5;
  config.max_flows_per_event = 25;
  config.alpha = 4;
  config.seed = seed;
  config.background_churn = churn;
  config.sim.guard.auditor = {.enabled = true,
                              .mode = guard::AuditMode::kFailFast,
                              .cadence = 1};
  return config;
}

class SoakTest : public ::testing::TestWithParam<sched::SchedulerKind> {};

TEST_P(SoakTest, InvariantsHoldThroughoutWithChurn) {
  const Workload workload(SoakConfig(41, true));
  const sim::SimResult result = RunScheduler(workload, GetParam());
  EXPECT_EQ(result.records.size(), 12u);
}

TEST_P(SoakTest, InvariantsHoldThroughoutStatic) {
  const Workload workload(SoakConfig(43, false));
  const sim::SimResult result = RunScheduler(workload, GetParam());
  EXPECT_EQ(result.records.size(), 12u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, SoakTest,
                         ::testing::Values(sched::SchedulerKind::kFifo,
                                           sched::SchedulerKind::kReorder,
                                           sched::SchedulerKind::kLmtf,
                                           sched::SchedulerKind::kPlmtf,
                                           sched::SchedulerKind::kSjf));

// The flow-level baseline honours the same fail-fast auditor at cadence 1:
// a pass after every departure and every dispatched flow, then a final one.
TEST(SoakTest, FlowLevelInvariantsHold) {
  for (const bool churn : {true, false}) {
    SCOPED_TRACE(churn ? "churn" : "static");
    const Workload workload(SoakConfig(churn ? 47 : 53, churn));
    const sim::SimResult result = RunFlowLevel(workload);
    EXPECT_EQ(result.records.size(), 12u);
    // At least one pass per dispatched flow, plus the final pass.
    std::size_t flows = 0;
    for (const update::UpdateEvent& e : workload.events()) {
      flows += e.flow_count();
    }
    EXPECT_GT(result.guard_stats.audits_run, flows);
    EXPECT_EQ(result.guard_stats.audit_violations, 0u);
    EXPECT_TRUE(result.violations.empty());
  }
}

/// The ISSUE's robustness acceptance run: random fabric-link outages plus
/// flaky installs, full invariant validation after every occurrence batch,
/// and nonzero fault counters in the exported report.
TEST(SoakTest, FaultInjectionSoakStaysConsistent) {
  ExperimentConfig config = SoakConfig(61, true);
  {
    // Sample victim cables from the workload's own graph; the same seed
    // rebuilds the identical graph below.
    const Workload probe(config);
    Rng fault_rng(config.seed ^ 0xFA17ULL);
    fault::RandomLinkFaultOptions options;
    options.failures = 3;
    options.first_failure = 0.5;
    options.spacing = 1.5;
    options.outage = 3.0;
    config.sim.faults.plan = fault::MakeRandomLinkFaultPlan(
        probe.network().graph(), options, fault_rng);
  }
  config.sim.faults.flaky.failure_probability = 0.25;
  config.sim.faults.flaky.latency_jitter_frac = 0.2;
  config.sim.faults.retry.max_attempts = 3;
  config.sim.faults.retry.base_delay = 0.02;

  const Workload workload(config);
  const sim::SimResult result =
      RunScheduler(workload, sched::SchedulerKind::kLmtf);
  // Invariants were audited after every occurrence batch (a fail-fast
  // audit throws on a violation), and every event still completed.
  EXPECT_EQ(result.records.size(), 12u);
  EXPECT_EQ(result.fault_stats.link_failures, 3u);
  EXPECT_GT(result.fault_stats.installs_attempted, 0u);
  EXPECT_GT(result.fault_stats.installs_retried, 0u);
  EXPECT_EQ(result.report.installs_retried,
            result.fault_stats.installs_retried);
}

/// Same soak under aggressive flakiness and a stingy retry budget so the
/// abort+rollback path is exercised repeatedly across rounds.
TEST(SoakTest, AbortHeavySoakStillCompletesEverything) {
  ExperimentConfig config = SoakConfig(67, false);
  config.sim.faults.flaky.failure_probability = 0.6;
  config.sim.faults.flaky.latency_jitter_frac = 0.3;
  config.sim.faults.retry.max_attempts = 2;
  config.sim.faults.retry.base_delay = 0.02;

  const Workload workload(config);
  const sim::SimResult result =
      RunScheduler(workload, sched::SchedulerKind::kPlmtf);
  EXPECT_EQ(result.records.size(), 12u);
  EXPECT_GT(result.fault_stats.events_aborted, 0u);
  EXPECT_GT(result.fault_stats.installs_failed, 0u);
  EXPECT_GT(result.fault_stats.recovery_latency.count(), 0u);
}

TEST(SoakTest, QuickProbesInvariantsHold) {
  ExperimentConfig config = SoakConfig(59, true);
  config.sim.quick_cost_probes = true;
  const Workload workload(config);
  EXPECT_EQ(RunScheduler(workload, sched::SchedulerKind::kLmtf).records.size(),
            12u);
}

}  // namespace
}  // namespace nu::exp
