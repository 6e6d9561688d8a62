// Robustness bench — fault injection & recovery. A fixed random plan of
// fabric-link outages plus a sweep of the flaky-install failure probability,
// run through the event-level schedulers. Reports how ECT and makespan
// degrade with fault intensity and what the recovery machinery did about it
// (retries, aborts+rollbacks, replans, per-flow recovery latency).
//
// A second table runs correlated (SRLG) regimes — pod power events,
// core-plane losses, rolling maintenance drains, and a pod outage with the
// overload cascade armed — and reports the group-fault counters and the
// SRLG-specific recovery latencies.
//
// Run:  ./bench_fault_recovery [--trials=N] [--csv=PATH] [--srlg-csv=PATH]
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/srlg.h"

using namespace nu;

namespace {

exp::ExperimentConfig BaseConfig(std::uint64_t seed) {
  exp::ExperimentConfig config;
  config.fat_tree_k = 4;
  config.utilization = 0.6;
  config.event_count = 20;
  config.min_flows_per_event = 5;
  config.max_flows_per_event = 40;
  config.alpha = 4;
  config.background_churn = true;
  config.seed = seed;
  return config;
}

metrics::Report RunPoint(double flaky_p, sched::SchedulerKind kind,
                         std::size_t trials) {
  std::vector<metrics::Report> reports;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    exp::ExperimentConfig config = BaseConfig(23000 + trial);
    {
      // Sample victim cables from the workload's own graph; rebuilding the
      // workload from the same seed below reproduces that graph exactly.
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
    config.sim.faults.flaky.failure_probability = flaky_p;
    config.sim.faults.flaky.latency_jitter_frac = 0.2;
    config.sim.faults.retry.max_attempts = 4;
    config.sim.faults.retry.base_delay = 0.05;

    const exp::Workload workload(config);
    reports.push_back(exp::RunScheduler(workload, kind).report);
  }
  return exp::MeanReport(reports);
}

/// Correlated-failure regimes for the SRLG table.
enum class SrlgRegime { kPodOutage, kPlaneLoss, kRollingDrain, kPodCascade };

const char* ToString(SrlgRegime regime) {
  switch (regime) {
    case SrlgRegime::kPodOutage: return "pod-outage";
    case SrlgRegime::kPlaneLoss: return "plane-loss";
    case SrlgRegime::kRollingDrain: return "rolling-drain";
    case SrlgRegime::kPodCascade: return "pod+cascade";
  }
  return "?";
}

metrics::Report RunSrlgPoint(SrlgRegime regime, sched::SchedulerKind kind,
                             std::size_t trials) {
  std::vector<metrics::Report> reports;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    exp::ExperimentConfig config = BaseConfig(27000 + trial);
    {
      // Derive the canonical SRLG catalog from the workload's own fabric.
      const exp::Workload probe(config);
      fault::FaultPlan& plan = config.sim.faults.plan;
      std::size_t pod = fault::kNoGroup;
      std::size_t plane = fault::kNoGroup;
      for (const fault::SharedRiskGroup& group :
           fault::DeriveFatTreeSrlgs(probe.fat_tree())) {
        const std::size_t idx = plan.AddGroup(group);
        if (group.name == "pod1") pod = idx;
        if (group.name == "core-plane0") plane = idx;
      }
      switch (regime) {
        case SrlgRegime::kPodOutage:
          plan.AddGroupOutage(1.0, 3.0, pod);
          break;
        case SrlgRegime::kPlaneLoss:
          plan.AddGroupOutage(1.0, 3.0, plane);
          break;
        case SrlgRegime::kRollingDrain:
          plan.AddRollingDrain(1.0, 0.5, 1.5, pod);
          break;
        case SrlgRegime::kPodCascade:
          plan.AddGroupOutage(1.0, 3.0, pod);
          config.sim.faults.cascade.max_secondary_failures = 4;
          config.sim.faults.cascade.utilization_threshold = 0.95;
          config.sim.faults.cascade.hold_time = 0.5;
          config.sim.faults.cascade.outage = 2.0;
          break;
      }
    }
    config.sim.faults.flaky.failure_probability = 0.1;
    config.sim.faults.retry.max_attempts = 4;
    config.sim.faults.retry.base_delay = 0.05;

    const exp::Workload workload(config);
    reports.push_back(exp::RunScheduler(workload, kind).report);
  }
  return exp::MeanReport(reports);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  bench::PrintHeader(
      "Robustness: fault injection & recovery",
      "4-pod Fat-Tree, 20 events, 3 random fabric-link outages (4 s each), "
      "flaky-install probability sweep, churn on");
  const std::size_t trials = flags.GetUint("trials", 3);

  AsciiTable table({"flaky p", "scheduler", "avg ECT (s)", "makespan (s)",
                    "attempts", "retried", "aborted", "replanned", "killed",
                    "rec mean (s)", "rec p99 (s)"});
  const std::vector<double> probabilities{0.0, 0.1, 0.3, 0.5};
  const std::vector<sched::SchedulerKind> kinds{sched::SchedulerKind::kFifo,
                                                sched::SchedulerKind::kLmtf,
                                                sched::SchedulerKind::kPlmtf};
  for (double p : probabilities) {
    for (sched::SchedulerKind kind : kinds) {
      const metrics::Report r = RunPoint(p, kind, trials);
      table.Row()
          .Cell(p, 1)
          .Cell(std::string(sched::ToString(kind)))
          .Cell(r.avg_ect, 1)
          .Cell(r.makespan, 1)
          .Cell(r.installs_attempted)
          .Cell(r.installs_retried)
          .Cell(r.events_aborted)
          .Cell(r.events_replanned)
          .Cell(r.flows_killed)
          .Cell(r.recovery_latency_mean, 2)
          .Cell(r.recovery_latency_p99, 2);
    }
  }
  table.Print();
  bench::MaybeWriteCsv(table, flags.GetString("csv", ""));

  bench::PrintHeader(
      "Robustness: correlated (SRLG) failures",
      "4-pod Fat-Tree, 20 events, one correlated incident per run (pod power "
      "event, core-plane loss, rolling drain, or pod outage with the overload "
      "cascade armed), flaky p=0.1, churn on");
  AsciiTable srlg_table({"regime", "scheduler", "avg ECT (s)", "makespan (s)",
                         "grp faults", "cascades", "depth", "killed",
                         "srlg rec mean (s)", "srlg rec p99 (s)"});
  const std::vector<SrlgRegime> regimes{
      SrlgRegime::kPodOutage, SrlgRegime::kPlaneLoss,
      SrlgRegime::kRollingDrain, SrlgRegime::kPodCascade};
  for (SrlgRegime regime : regimes) {
    for (sched::SchedulerKind kind : kinds) {
      const metrics::Report r = RunSrlgPoint(regime, kind, trials);
      srlg_table.Row()
          .Cell(std::string(ToString(regime)))
          .Cell(std::string(sched::ToString(kind)))
          .Cell(r.avg_ect, 1)
          .Cell(r.makespan, 1)
          .Cell(r.group_faults)
          .Cell(r.cascade_failures)
          .Cell(r.cascade_depth_max)
          .Cell(r.flows_killed)
          .Cell(r.srlg_recovery_latency_mean, 2)
          .Cell(r.srlg_recovery_latency_p99, 2);
    }
  }
  srlg_table.Print();
  bench::MaybeWriteCsv(srlg_table, flags.GetString("srlg-csv", ""));
  bench::PrintFooter(
      "ECT and makespan grow with flaky probability (retry backoff + aborted "
      "rounds); retried/aborted counters scale with p while replans/kills "
      "stay fixed by the outage plan; recovery latency stays bounded because "
      "victims re-plan immediately on surviving paths. SRLG table: a pod "
      "power event counts as ONE group fault; its hosts have no surviving "
      "path, so srlg recovery latency ~= the outage; a rolling drain expands "
      "to element faults (zero group faults); arming the cascade under load "
      "adds secondary failures at depth >= 2 and more kills");
  return 0;
}
