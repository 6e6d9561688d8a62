// Field-descriptor table for metrics::Report: the single source of truth
// for the report CSV schema (column names, order, formatting) and for
// cross-trial aggregation (exp::MeanReport). Adding a member to Report
// means adding exactly one descriptor here; the tiling test in
// tests/metrics/report_fields_test.cc fails otherwise.
#pragma once

#include <array>
#include <cstddef>

#include "metrics/report.h"

namespace nu::metrics {

/// How MeanReport aggregates a field across trials.
enum class FieldMean {
  kMean,   ///< Sum over trials divided by trial count.
  kFirst,  ///< Taken from the first trial (identical across trials).
  kMax,    ///< Cross-trial maximum (a bound, not a mean).
};

/// One Report member. Exactly one of `counter`/`real` is non-null; the
/// other pointer-to-member is nullptr.
struct ReportField {
  const char* csv_name;
  std::size_t Report::* counter;
  double Report::* real;
  /// FormatDouble precision for real fields; unused for counters.
  int csv_precision;
  FieldMean mean;
};

/// Every Report member, in declaration order — which is also the report-CSV
/// column order.
inline constexpr std::array<ReportField, 54> kReportFields = {{
    {"events", &Report::event_count, nullptr, 0, FieldMean::kFirst},
    {"avg_ect", nullptr, &Report::avg_ect, 4, FieldMean::kMean},
    {"tail_ect", nullptr, &Report::tail_ect, 4, FieldMean::kMean},
    {"avg_qdelay", nullptr, &Report::avg_queuing_delay, 4, FieldMean::kMean},
    {"worst_qdelay", nullptr, &Report::worst_queuing_delay, 4,
     FieldMean::kMean},
    {"total_cost", nullptr, &Report::total_cost, 2, FieldMean::kMean},
    {"plan_time", nullptr, &Report::total_plan_time, 4, FieldMean::kMean},
    {"makespan", nullptr, &Report::makespan, 4, FieldMean::kMean},
    {"deferred", &Report::total_deferred_flows, nullptr, 0, FieldMean::kMean},
    {"installs_attempted", &Report::installs_attempted, nullptr, 0,
     FieldMean::kMean},
    {"installs_retried", &Report::installs_retried, nullptr, 0,
     FieldMean::kMean},
    {"installs_failed", &Report::installs_failed, nullptr, 0,
     FieldMean::kMean},
    {"events_aborted", &Report::events_aborted, nullptr, 0, FieldMean::kMean},
    {"events_replanned", &Report::events_replanned, nullptr, 0,
     FieldMean::kMean},
    {"group_faults", &Report::group_faults, nullptr, 0, FieldMean::kMean},
    {"cascade_failures", &Report::cascade_failures, nullptr, 0,
     FieldMean::kMean},
    {"cascade_depth_max", &Report::cascade_depth_max, nullptr, 0,
     FieldMean::kMax},
    {"flows_killed", &Report::flows_killed, nullptr, 0, FieldMean::kMean},
    {"recovery_mean", nullptr, &Report::recovery_latency_mean, 4,
     FieldMean::kMean},
    {"recovery_p99", nullptr, &Report::recovery_latency_p99, 4,
     FieldMean::kMean},
    {"recovery_max", nullptr, &Report::recovery_latency_max, 4,
     FieldMean::kMean},
    {"srlg_recovery_mean", nullptr, &Report::srlg_recovery_latency_mean, 4,
     FieldMean::kMean},
    {"srlg_recovery_p99", nullptr, &Report::srlg_recovery_latency_p99, 4,
     FieldMean::kMean},
    {"events_completed", &Report::events_completed, nullptr, 0,
     FieldMean::kMean},
    {"events_shed", &Report::events_shed, nullptr, 0, FieldMean::kMean},
    {"deadline_misses", &Report::deadline_misses, nullptr, 0,
     FieldMean::kMean},
    {"events_requeued", &Report::events_requeued, nullptr, 0,
     FieldMean::kMean},
    {"events_quarantined", &Report::events_quarantined, nullptr, 0,
     FieldMean::kMean},
    {"audits_run", &Report::audits_run, nullptr, 0, FieldMean::kMean},
    {"audit_violations", &Report::audit_violations, nullptr, 0,
     FieldMean::kMean},
    {"max_queue_length", &Report::max_queue_length, nullptr, 0,
     FieldMean::kMax},
    {"probe_cache_hits", &Report::probe_cache_hits, nullptr, 0,
     FieldMean::kMean},
    {"probe_cache_misses", &Report::probe_cache_misses, nullptr, 0,
     FieldMean::kMean},
    {"exec_plan_reuses", &Report::exec_plan_reuses, nullptr, 0,
     FieldMean::kMean},
    {"ckpt_snapshots", &Report::ckpt_snapshots, nullptr, 0, FieldMean::kMean},
    {"ckpt_wal_records", &Report::ckpt_wal_records, nullptr, 0,
     FieldMean::kMean},
    {"ckpt_recoveries", &Report::ckpt_recoveries, nullptr, 0,
     FieldMean::kMean},
    {"ckpt_wal_replayed", &Report::ckpt_wal_replayed, nullptr, 0,
     FieldMean::kMean},
    {"ckpt_snapshot_bytes", nullptr, &Report::ckpt_snapshot_bytes, 0,
     FieldMean::kMean},
    {"ckpt_snapshot_wall_seconds", nullptr, &Report::ckpt_snapshot_wall_seconds,
     6, FieldMean::kMean},
    {"ckpt_recovery_wall_seconds", nullptr, &Report::ckpt_recovery_wall_seconds,
     6, FieldMean::kMean},
    {"drift_checks", &Report::drift_checks, nullptr, 0, FieldMean::kMean},
    {"drift_rules_detected", &Report::drift_rules_detected, nullptr, 0,
     FieldMean::kMean},
    {"grey_ack_lies", &Report::grey_ack_lies, nullptr, 0, FieldMean::kMean},
    {"grey_stragglers", &Report::grey_stragglers, nullptr, 0,
     FieldMean::kMean},
    {"grey_rules_lost", &Report::grey_rules_lost, nullptr, 0,
     FieldMean::kMean},
    {"drift_repairs", &Report::drift_repairs, nullptr, 0, FieldMean::kMean},
    {"drift_repair_failures", &Report::drift_repair_failures, nullptr, 0,
     FieldMean::kMean},
    {"drift_rules_abandoned", &Report::drift_rules_abandoned, nullptr, 0,
     FieldMean::kMean},
    {"switches_degraded", &Report::switches_degraded, nullptr, 0,
     FieldMean::kMean},
    {"switches_quarantined", &Report::switches_quarantined, nullptr, 0,
     FieldMean::kMean},
    {"drift_residual_rules", &Report::drift_residual_rules, nullptr, 0,
     FieldMean::kMean},
    {"drift_repair_mean", nullptr, &Report::drift_repair_mean, 4,
     FieldMean::kMean},
    {"drift_repair_p99", nullptr, &Report::drift_repair_p99, 4,
     FieldMean::kMean},
}};

}  // namespace nu::metrics
