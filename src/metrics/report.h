// Aggregate report over a simulation run: the exact quantities the paper's
// figures plot, plus helpers to express one run relative to a baseline run
// (the "reduction vs FIFO" framing of Figs. 6-9).
#pragma once

#include "metrics/collector.h"

namespace nu::metrics {

struct Report {
  std::size_t event_count = 0;
  double avg_ect = 0.0;
  /// Tail ECT at the configured percentile (1.0 = max).
  double tail_ect = 0.0;
  double avg_queuing_delay = 0.0;
  double worst_queuing_delay = 0.0;
  /// Total update cost: migrated traffic summed over events (Mbps).
  double total_cost = 0.0;
  /// Modeled control-plane planning time (seconds).
  double total_plan_time = 0.0;
  /// Virtual time when the last event completed.
  double makespan = 0.0;
  std::size_t total_deferred_flows = 0;

  // Fault-and-recovery aggregates (all zero when fault injection is off);
  // see metrics::FaultStats for the counters' exact meanings.
  std::size_t installs_attempted = 0;
  std::size_t installs_retried = 0;
  std::size_t installs_failed = 0;
  std::size_t events_aborted = 0;
  std::size_t events_replanned = 0;
  /// Correlated (SRLG) group incidents that fired.
  std::size_t group_faults = 0;
  /// Secondary failures injected by the overload cascade engine.
  std::size_t cascade_failures = 0;
  /// Deepest cascade chain observed (primary = 1; 0 when no faults fired).
  std::size_t cascade_depth_max = 0;
  std::size_t flows_killed = 0;
  /// Disruption -> reinstall latency stats (0 when nothing was disrupted).
  double recovery_latency_mean = 0.0;
  double recovery_latency_p99 = 0.0;
  double recovery_latency_max = 0.0;
  /// Same stats over flows stranded by GROUP incidents only (per-SRLG
  /// recovery story; 0 when no group incident stranded a flow).
  double srlg_recovery_latency_mean = 0.0;
  double srlg_recovery_latency_p99 = 0.0;

  // Overload-guard and auditor aggregates (all zero when the guard
  // subsystem is off); see metrics::GuardStats for exact meanings. With the
  // guard on, ECT/queuing-delay averages cover completed events only —
  // events_completed says how many that is.
  std::size_t events_completed = 0;
  std::size_t events_shed = 0;
  std::size_t deadline_misses = 0;
  std::size_t events_requeued = 0;
  std::size_t events_quarantined = 0;
  std::size_t audits_run = 0;
  std::size_t audit_violations = 0;
  std::size_t max_queue_length = 0;

  // Probe aggregates; see metrics::ProbeStats. These measure the real
  // control plane, never the modeled plan time.
  std::size_t probe_cache_hits = 0;
  std::size_t probe_cache_misses = 0;
  std::size_t exec_plan_reuses = 0;

  // Checkpoint & crash-recovery aggregates (all zero with checkpointing
  // off). snapshots/wal_records are deterministic run totals (see
  // metrics::CkptStats); the remaining fields describe what THIS process
  // did — snapshot bytes/wall it wrote, journal records it replay-verified
  // after a restore — so they legitimately differ between an uninterrupted
  // run and a crash+recover run and are excluded by the determinism oracle.
  std::size_t ckpt_snapshots = 0;
  std::size_t ckpt_wal_records = 0;
  std::size_t ckpt_recoveries = 0;
  std::size_t ckpt_wal_replayed = 0;
  double ckpt_snapshot_bytes = 0.0;
  double ckpt_snapshot_wall_seconds = 0.0;
  double ckpt_recovery_wall_seconds = 0.0;

  // Grey-failure / reconciliation aggregates (all zero when both the grey
  // model and the reconciler are off); see recon::ReconStats for exact
  // meanings. drift_residual_rules counts divergence left at end of run —
  // abandoned repairs only, unless the reconciler was off while grey
  // failures were on.
  std::size_t drift_checks = 0;
  std::size_t drift_rules_detected = 0;
  std::size_t grey_ack_lies = 0;
  std::size_t grey_stragglers = 0;
  std::size_t grey_rules_lost = 0;
  std::size_t drift_repairs = 0;
  std::size_t drift_repair_failures = 0;
  std::size_t drift_rules_abandoned = 0;
  std::size_t switches_degraded = 0;
  std::size_t switches_quarantined = 0;
  std::size_t drift_residual_rules = 0;
  /// Divergence-onset -> repair latency (virtual seconds; 0 = no repairs).
  double drift_repair_mean = 0.0;
  double drift_repair_p99 = 0.0;
};

/// Builds a report from collected records. `tail_percentile` in (0, 1]:
/// 1.0 yields the maximum (the paper's "tail").
[[nodiscard]] Report BuildReport(const Collector& collector,
                                 double total_plan_time,
                                 double tail_percentile = 1.0);

/// Relative reductions of `ours` against `baseline` for the four headline
/// metrics, as fractions (0.75 = "75% reduction").
struct ReductionReport {
  double avg_ect = 0.0;
  double tail_ect = 0.0;
  double total_cost = 0.0;
  double avg_queuing_delay = 0.0;
  double worst_queuing_delay = 0.0;
  /// Ratio (not reduction) of plan time: ours / baseline.
  double plan_time_ratio = 0.0;
};

[[nodiscard]] ReductionReport Reductions(const Report& baseline,
                                         const Report& ours);

}  // namespace nu::metrics
