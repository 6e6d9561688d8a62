// Robustness bench — overload guard chaos soak. Drives the simulator well
// past its service rate (arrival-gap sweep down to several times overload)
// while fabric links fail and installs flake, with the FULL guard stack on:
// bounded queue with shed-costliest admission control, per-event soft
// deadlines with escalating-backoff requeue and poison quarantine, and the
// runtime invariant auditor in log-and-count mode on a short cadence.
//
// This is the acceptance soak for the guard subsystem: every cell must
// terminate with the queue inside its bound and ZERO audit violations —
// the binary aborts (NU_CHECK) otherwise, so a red run cannot be committed
// to results/ unnoticed.
//
// Run:  ./bench_guard_overload [--trials=N] [--csv=PATH]
#include <vector>

#include "bench_common.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"

using namespace nu;

namespace {

/// Arrival gap at which the system roughly keeps up (measured; the 1x row
/// below confirms it sheds little). Overload factor f divides this gap, so
/// f=2 means events arrive twice as fast as they can be served.
constexpr double kBaseGapSeconds = 1.0;

exp::ExperimentConfig BaseConfig(std::uint64_t seed, double overload) {
  exp::ExperimentConfig config;
  config.fat_tree_k = 4;
  config.utilization = 0.6;
  config.event_count = 30;
  config.min_flows_per_event = 5;
  config.max_flows_per_event = 30;
  config.alpha = 4;
  config.background_churn = true;
  config.mean_interarrival = kBaseGapSeconds / overload;
  config.seed = seed;

  // The guard stack under test.
  config.sim.guard.overload.max_queue_length = 8;
  config.sim.guard.overload.policy = guard::OverloadPolicy::kShedCostliest;
  config.sim.guard.deadline.base_deadline = 3.0;
  config.sim.guard.deadline.per_flow_deadline = 0.1;
  config.sim.guard.deadline.max_failures = 3;
  config.sim.guard.deadline.requeue_backoff = 0.25;
  config.sim.guard.auditor.enabled = true;
  config.sim.guard.auditor.mode = guard::AuditMode::kLogAndCount;
  config.sim.guard.auditor.cadence = 8;
  return config;
}

metrics::Report RunPoint(double overload, sched::SchedulerKind kind,
                         std::size_t trials) {
  std::vector<metrics::Report> reports;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    exp::ExperimentConfig config = BaseConfig(31000 + trial, overload);
    {
      // Same victim-sampling trick as bench_fault_recovery: probe the graph
      // the seeded workload will build, then rebuild it identically.
      const exp::Workload probe(config);
      Rng fault_rng(config.seed ^ 0x6A4DULL);
      fault::RandomLinkFaultOptions outages;
      outages.failures = 3;
      outages.first_failure = 1.0;
      outages.spacing = 2.0;
      outages.outage = 4.0;
      config.sim.faults.plan = fault::MakeRandomLinkFaultPlan(
          probe.network().graph(), outages, fault_rng);
    }
    config.sim.faults.flaky.failure_probability = 0.2;
    config.sim.faults.retry.max_attempts = 4;
    config.sim.faults.retry.base_delay = 0.05;

    const exp::Workload workload(config);
    const sim::SimResult result = exp::RunScheduler(workload, kind);

    // The soak's pass/fail line: bounded queue, clean audits, every trial.
    NU_CHECK(result.guard_stats.max_queue_length <=
             config.sim.guard.overload.max_queue_length);
    NU_CHECK(result.guard_stats.audits_run > 0);
    NU_CHECK(result.guard_stats.audit_violations == 0);
    reports.push_back(result.report);
  }
  return exp::MeanReport(reports);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  bench::PrintHeader(
      "Robustness: overload guard chaos soak",
      "4-pod Fat-Tree, 30 events, queue bound 8 (shed-costliest), deadlines "
      "+ quarantine, auditor on cadence 8, 3 link outages + 20% flaky "
      "installs, arrival-rate overload sweep");
  const std::size_t trials = flags.GetUint("trials", 3);

  AsciiTable table({"overload", "scheduler", "completed", "shed",
                    "quarantined", "misses", "requeued", "max queue",
                    "audits", "violations", "avg ECT (s)", "makespan (s)"});
  const std::vector<double> overloads{1.0, 2.0, 4.0};
  const std::vector<sched::SchedulerKind> kinds{sched::SchedulerKind::kFifo,
                                                sched::SchedulerKind::kLmtf,
                                                sched::SchedulerKind::kPlmtf};
  for (double overload : overloads) {
    for (sched::SchedulerKind kind : kinds) {
      const metrics::Report r = RunPoint(overload, kind, trials);
      table.Row()
          .Cell(overload, 1)
          .Cell(std::string(sched::ToString(kind)))
          .Cell(r.events_completed)
          .Cell(r.events_shed)
          .Cell(r.events_quarantined)
          .Cell(r.deadline_misses)
          .Cell(r.events_requeued)
          .Cell(r.max_queue_length)
          .Cell(r.audits_run)
          .Cell(r.audit_violations)
          .Cell(r.avg_ect, 1)
          .Cell(r.makespan, 1);
    }
  }
  table.Print();
  bench::MaybeWriteCsv(table, flags.GetString("csv", ""));
  bench::PrintFooter(
      "shed/misses grow with the overload factor while max queue stays at "
      "the bound and violations stay 0; LMTF-family schedulers complete more "
      "events than FIFO at the same overload because shed-costliest plus "
      "cost-aware ordering drains cheap events first");
  return 0;
}
