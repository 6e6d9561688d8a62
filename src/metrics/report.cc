#include "metrics/report.h"

#include <algorithm>

#include "common/check.h"

namespace nu::metrics {

Report BuildReport(const Collector& collector, double total_plan_time,
                   double tail_percentile) {
  NU_EXPECTS(tail_percentile > 0.0 && tail_percentile <= 1.0);
  Report report;
  const Samples ects = collector.EctSamples();
  const Samples delays = collector.QueuingDelaySamples();
  report.event_count = collector.records().size();
  report.avg_ect = ects.mean();
  report.tail_ect = tail_percentile >= 1.0 ? ects.max()
                                           : ects.Percentile(tail_percentile);
  report.avg_queuing_delay = delays.mean();
  report.worst_queuing_delay = delays.max();
  report.total_cost = collector.TotalCost();
  report.total_plan_time = total_plan_time;
  for (const EventRecord& r : collector.records()) {
    report.makespan = std::max(report.makespan, r.completion);
    report.total_deferred_flows += r.deferred_flows;
  }
  for (const EventRecord& r : collector.records()) {
    if (r.status == TerminalStatus::kCompleted) ++report.events_completed;
  }
  const GuardStats& guard = collector.guard_stats();
  report.events_shed = guard.events_shed;
  report.deadline_misses = guard.deadline_misses;
  report.events_requeued = guard.events_requeued;
  report.events_quarantined = guard.events_quarantined;
  report.audits_run = guard.audits_run;
  report.audit_violations = guard.audit_violations;
  report.max_queue_length = guard.max_queue_length;
  const FaultStats& faults = collector.fault_stats();
  report.installs_attempted = faults.installs_attempted;
  report.installs_retried = faults.installs_retried;
  report.installs_failed = faults.installs_failed;
  report.events_aborted = faults.events_aborted;
  report.events_replanned = faults.events_replanned;
  report.group_faults = faults.group_faults;
  report.cascade_failures = faults.cascade_failures;
  report.cascade_depth_max = faults.cascade_depth_max;
  report.flows_killed = faults.flows_killed;
  if (!faults.recovery_latency.empty()) {
    report.recovery_latency_mean = faults.recovery_latency.mean();
    report.recovery_latency_p99 = faults.recovery_latency.Percentile(0.99);
    report.recovery_latency_max = faults.recovery_latency.max();
  }
  if (!faults.srlg_recovery_latency.empty()) {
    report.srlg_recovery_latency_mean = faults.srlg_recovery_latency.mean();
    report.srlg_recovery_latency_p99 =
        faults.srlg_recovery_latency.Percentile(0.99);
  }
  const ProbeStats& probes = collector.probe_stats();
  report.probe_cache_hits = probes.probe_cache_hits;
  report.probe_cache_misses = probes.probe_cache_misses;
  report.exec_plan_reuses = probes.exec_plan_reuses;
  const CkptStats& ckpt = collector.ckpt_stats();
  report.ckpt_snapshots = ckpt.snapshots_taken;
  report.ckpt_wal_records = ckpt.wal_records;
  // The per-process recovery fields (ckpt_recoveries, ckpt_wal_replayed,
  // byte/wall totals) are filled in by the simulator, which owns that
  // bookkeeping.
  return report;
}

ReductionReport Reductions(const Report& baseline, const Report& ours) {
  ReductionReport result;
  result.avg_ect = ReductionVs(baseline.avg_ect, ours.avg_ect);
  result.tail_ect = ReductionVs(baseline.tail_ect, ours.tail_ect);
  result.total_cost = ReductionVs(baseline.total_cost, ours.total_cost);
  result.avg_queuing_delay =
      ReductionVs(baseline.avg_queuing_delay, ours.avg_queuing_delay);
  result.worst_queuing_delay =
      ReductionVs(baseline.worst_queuing_delay, ours.worst_queuing_delay);
  result.plan_time_ratio = baseline.total_plan_time == 0.0
                               ? 0.0
                               : ours.total_plan_time / baseline.total_plan_time;
  return result;
}

}  // namespace nu::metrics
