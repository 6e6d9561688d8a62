// Failure-recovery scenario, end to end: a seeded plan of cable outages and
// a flaky rule-install pipeline injected into the event-level simulator.
// Faults strand in-flight update flows mid-round; the simulator re-plans
// them on surviving paths, retries flaky installs with exponential backoff,
// and aborts+rolls back batches whose retries run out. The same machinery is
// then shown at the rule level: a two-phase schedule that dies before the
// ingress flip rolls back to the exact pre-update table.
//
// Run:  ./failure_recovery
#include <cstdio>

#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/flaky_apply.h"
#include "sched/factory.h"

using namespace nu;

namespace {

void SimulatorUnderFaults() {
  std::printf("--- event-level simulation under faults ---\n");
  exp::ExperimentConfig config;
  config.fat_tree_k = 4;
  config.utilization = 0.6;
  config.event_count = 12;
  config.min_flows_per_event = 5;
  config.max_flows_per_event = 25;
  config.alpha = 4;
  config.background_churn = true;
  config.seed = 31;

  {
    // Three random fabric cables fail during the run, 4 s outages each.
    const exp::Workload probe(config);
    Rng fault_rng(config.seed ^ 0xFA17ULL);
    fault::RandomLinkFaultOptions outages;
    outages.failures = 3;
    outages.first_failure = 1.0;
    outages.spacing = 2.0;
    outages.outage = 4.0;
    config.sim.faults.plan = fault::MakeRandomLinkFaultPlan(
        probe.network().graph(), outages, fault_rng);
  }
  config.sim.faults.flaky.failure_probability = 0.3;
  config.sim.faults.flaky.latency_jitter_frac = 0.2;
  config.sim.faults.retry.max_attempts = 3;
  // Audited after every batch; a violation throws guard::AuditFailure.
  config.sim.guard.auditor = {.enabled = true,
                              .mode = guard::AuditMode::kFailFast,
                              .cadence = 1};

  for (const fault::FaultSpec& spec : config.sim.faults.plan.specs()) {
    std::printf("  t=%5.1f  %s\n", spec.time,
                spec.kind == fault::FaultKind::kLinkDown ? "link DOWN"
                                                         : "link UP");
  }

  const exp::Workload workload(config);
  const sim::SimResult result =
      exp::RunScheduler(workload, sched::SchedulerKind::kLmtf);
  const metrics::Report& r = result.report;
  std::printf("\n  %zu/%zu events completed, makespan %.1f s\n",
              result.records.size(), workload.events().size(), r.makespan);
  std::printf("  installs: %zu attempted, %zu retried, %zu exhausted\n",
              r.installs_attempted, r.installs_retried, r.installs_failed);
  std::printf("  recovery: %zu batch aborts (rolled back), %zu replans, "
              "%zu flows killed\n",
              r.events_aborted, r.events_replanned, r.flows_killed);
  if (r.flows_killed > 0 || r.events_aborted > 0) {
    std::printf("  disruption -> reinstall latency: mean %.2f s, p99 %.2f s\n",
                r.recovery_latency_mean, r.recovery_latency_p99);
  }
  std::printf("  invariants held after every occurrence batch\n\n");
}

void RuleLevelRollback() {
  std::printf("--- rule-level abort & rollback (two-phase) ---\n");
  topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  topo::FatTreePathProvider provider(ft);
  const FlowId flow{1};
  const auto& paths = provider.Paths(ft.host(0), ft.host(12));
  const topo::Path& old_path = paths[0];
  const topo::Path& new_path = paths[1];

  consistent::RuleTable rules;
  ApplyAll(rules, consistent::PlanInitialInstall(flow, old_path, 0));
  const auto schedule =
      consistent::PlanTwoPhaseReroute(flow, old_path, new_path, 0);
  std::printf("  two-phase reroute: %zu ops (%zu installs before the flip)\n",
              schedule.size(), new_path.links.size());

  // A pipeline this flaky with one retry per op will eventually exhaust a
  // budget; scan seeds for the first aborting run to show the rollback.
  fault::FlakyInstallModel flaky;
  flaky.failure_probability = 0.6;
  RetryPolicy retry;
  retry.max_attempts = 2;
  for (std::uint64_t seed = 0;; ++seed) {
    consistent::RuleTable attempt = rules;
    Rng rng(seed);
    const fault::FlakyApplyResult outcome =
        fault::ApplyWithFaults(attempt, schedule, flaky, retry, rng, 0.01);
    if (!outcome.rolled_back) continue;
    std::printf("  seed %llu: aborted after %zu attempts (%zu retries), "
                "%zu ops undone\n",
                static_cast<unsigned long long>(seed), outcome.attempts,
                outcome.retries, outcome.applied_ops);
    const auto fwd = ForwardPacket(ft.graph(), attempt, flow,
                                   old_path.source(), old_path.destination());
    std::printf("  post-rollback packet: %s via the OLD path (%zu rules, "
                "ingress v%u)\n",
                fwd.outcome == consistent::ForwardOutcome::kDelivered
                    ? "delivered"
                    : "LOST",
                attempt.RuleCountForFlow(flow), attempt.IngressVersion(flow));
    break;
  }

  // A healthy pipeline commits the same schedule.
  consistent::RuleTable healthy = rules;
  Rng rng(7);
  const fault::FlakyApplyResult ok = fault::ApplyWithFaults(
      healthy, schedule, fault::FlakyInstallModel{}, retry, rng, 0.01);
  std::printf("  healthy pipeline: committed=%s in %zu attempts, %.2f s\n",
              ok.committed ? "yes" : "no", ok.attempts, ok.elapsed);
}

}  // namespace

int main() {
  SimulatorUnderFaults();
  RuleLevelRollback();
  return 0;
}
