#include "metrics/collector.h"

#include <algorithm>

#include "common/check.h"

namespace nu::metrics {

const char* ToString(TerminalStatus status) {
  switch (status) {
    case TerminalStatus::kPending:
      return "pending";
    case TerminalStatus::kCompleted:
      return "completed";
    case TerminalStatus::kShed:
      return "shed";
    case TerminalStatus::kAborted:
      return "aborted";
    case TerminalStatus::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

EventRecord& Collector::Find(EventId event) {
  const auto it =
      std::find_if(records_.begin(), records_.end(),
                   [event](const EventRecord& r) { return r.event == event; });
  NU_EXPECTS(it != records_.end());
  return *it;
}

void Collector::OnArrival(EventId event, Seconds time,
                          std::size_t flow_count) {
  EventRecord record;
  record.event = event;
  record.arrival = time;
  record.exec_start = -1.0;
  record.completion = -1.0;
  record.flow_count = flow_count;
  records_.push_back(record);
}

void Collector::OnExecutionStart(EventId event, Seconds time) {
  EventRecord& record = Find(event);
  NU_EXPECTS(time >= record.arrival);
  // A watchdog-aborted event can execute again after requeueing; queuing
  // delay is measured to the FIRST execution start, so later attempts keep
  // the original timestamp.
  if (record.exec_start < 0.0) record.exec_start = time;
}

void Collector::OnCost(EventId event, Mbps added_cost) {
  NU_EXPECTS(added_cost >= 0.0);
  Find(event).cost += added_cost;
}

void Collector::OnDeferredFlow(EventId event) { ++Find(event).deferred_flows; }

void Collector::OnCompletion(EventId event, Seconds time) {
  EventRecord& record = Find(event);
  NU_EXPECTS(record.completion < 0.0);
  NU_EXPECTS(record.exec_start >= 0.0);
  NU_EXPECTS(time >= record.exec_start);
  NU_EXPECTS(!record.terminal());
  record.completion = time;
  record.status = TerminalStatus::kCompleted;
}

void Collector::OnInstallBatch(std::size_t attempts, bool failed) {
  NU_EXPECTS(attempts >= 1);
  fault_stats_.installs_attempted += attempts;
  fault_stats_.installs_retried += attempts - 1;
  if (failed) ++fault_stats_.installs_failed;
}

void Collector::OnInstallAborted(EventId event) {
  ++Find(event).aborts;
  ++fault_stats_.events_aborted;
}

void Collector::OnEventReplanned(EventId event) {
  ++Find(event).replans;
  ++fault_stats_.events_replanned;
}

void Collector::OnFault(bool link_fault) {
  link_fault ? ++fault_stats_.link_failures : ++fault_stats_.switch_failures;
}

void Collector::OnGroupFault() { ++fault_stats_.group_faults; }

void Collector::OnCascadeFailure(std::size_t depth) {
  ++fault_stats_.cascade_failures;
  fault_stats_.cascade_depth_max =
      std::max(fault_stats_.cascade_depth_max, depth);
}

void Collector::OnFlowKilled() { ++fault_stats_.flows_killed; }

void Collector::OnRecovery(Seconds latency, bool srlg) {
  NU_EXPECTS(latency >= 0.0);
  fault_stats_.recovery_latency.Add(latency);
  if (srlg) fault_stats_.srlg_recovery_latency.Add(latency);
}

void Collector::OnShed(EventId event, Seconds time) {
  EventRecord& record = Find(event);
  NU_EXPECTS(!record.terminal());
  NU_EXPECTS(time >= record.arrival);
  record.status = record.exec_start >= 0.0 ? TerminalStatus::kAborted
                                           : TerminalStatus::kShed;
  ++guard_stats_.events_shed;
}

void Collector::OnDeadlineMiss(EventId event) {
  ++Find(event).deadline_misses;
  ++guard_stats_.deadline_misses;
}

void Collector::OnRequeued(EventId event) {
  NU_EXPECTS(!Find(event).terminal());
  ++guard_stats_.events_requeued;
}

void Collector::OnQuarantined(EventId event, Seconds time) {
  EventRecord& record = Find(event);
  NU_EXPECTS(!record.terminal());
  NU_EXPECTS(time >= record.arrival);
  NU_EXPECTS(record.deadline_misses > 0);
  record.status = TerminalStatus::kQuarantined;
  ++guard_stats_.events_quarantined;
}

void Collector::OnAudit(std::size_t violations) {
  ++guard_stats_.audits_run;
  guard_stats_.audit_violations += violations;
}

void Collector::OnQueueDepth(std::size_t length) {
  guard_stats_.max_queue_length =
      std::max(guard_stats_.max_queue_length, length);
}

bool Collector::AllTerminal() const {
  return std::all_of(records_.begin(), records_.end(),
                     [](const EventRecord& r) { return r.terminal(); });
}

bool Collector::AllComplete() const {
  return std::all_of(records_.begin(), records_.end(),
                     [](const EventRecord& r) { return r.completion >= 0.0; });
}

Samples Collector::EctSamples() const {
  Samples samples;
  for (const EventRecord& r : records_) {
    if (r.completion >= 0.0) samples.Add(r.Ect());
  }
  return samples;
}

Samples Collector::QueuingDelaySamples() const {
  Samples samples;
  for (const EventRecord& r : records_) {
    if (r.exec_start >= 0.0) samples.Add(r.QueuingDelay());
  }
  return samples;
}

Mbps Collector::TotalCost() const {
  Mbps total = 0.0;
  for (const EventRecord& r : records_) total += r.cost;
  return total;
}

namespace {

void SaveSamples(BinWriter& w, const Samples& samples) {
  w.Size(samples.count());
  for (double v : samples.values()) w.F64(v);
}

Samples LoadSamples(BinReader& r) {
  const std::size_t count = r.Size();
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) values.push_back(r.F64());
  return Samples(std::move(values));
}

}  // namespace

void Collector::SaveState(BinWriter& w) const {
  w.Size(records_.size());
  for (const EventRecord& rec : records_) {
    w.U64(rec.event.value());
    w.F64(rec.arrival);
    w.F64(rec.exec_start);
    w.F64(rec.completion);
    w.F64(rec.cost);
    w.U64(rec.flow_count);
    w.U64(rec.deferred_flows);
    w.U64(rec.aborts);
    w.U64(rec.replans);
    w.U64(rec.deadline_misses);
    w.U8(static_cast<std::uint8_t>(rec.status));
  }
  w.U64(fault_stats_.installs_attempted);
  w.U64(fault_stats_.installs_retried);
  w.U64(fault_stats_.installs_failed);
  w.U64(fault_stats_.events_aborted);
  w.U64(fault_stats_.events_replanned);
  w.U64(fault_stats_.link_failures);
  w.U64(fault_stats_.switch_failures);
  w.U64(fault_stats_.group_faults);
  w.U64(fault_stats_.cascade_failures);
  w.U64(fault_stats_.cascade_depth_max);
  w.U64(fault_stats_.flows_killed);
  SaveSamples(w, fault_stats_.recovery_latency);
  SaveSamples(w, fault_stats_.srlg_recovery_latency);
  w.U64(guard_stats_.events_shed);
  w.U64(guard_stats_.deadline_misses);
  w.U64(guard_stats_.events_requeued);
  w.U64(guard_stats_.events_quarantined);
  w.U64(guard_stats_.audits_run);
  w.U64(guard_stats_.audit_violations);
  w.U64(guard_stats_.max_queue_length);
  w.U64(probe_stats_.probe_cache_hits);
  w.U64(probe_stats_.probe_cache_misses);
  w.U64(probe_stats_.exec_plan_reuses);
  w.U64(ckpt_stats_.snapshots_taken);
  w.U64(ckpt_stats_.wal_records);
}

void Collector::LoadState(BinReader& r) {
  records_.clear();
  const std::size_t count = r.Size();
  records_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    EventRecord rec;
    rec.event = EventId{r.U64()};
    rec.arrival = r.F64();
    rec.exec_start = r.F64();
    rec.completion = r.F64();
    rec.cost = r.F64();
    rec.flow_count = r.U64();
    rec.deferred_flows = r.U64();
    rec.aborts = r.U64();
    rec.replans = r.U64();
    rec.deadline_misses = r.U64();
    rec.status = static_cast<TerminalStatus>(r.U8());
    records_.push_back(rec);
  }
  fault_stats_.installs_attempted = r.U64();
  fault_stats_.installs_retried = r.U64();
  fault_stats_.installs_failed = r.U64();
  fault_stats_.events_aborted = r.U64();
  fault_stats_.events_replanned = r.U64();
  fault_stats_.link_failures = r.U64();
  fault_stats_.switch_failures = r.U64();
  fault_stats_.group_faults = r.U64();
  fault_stats_.cascade_failures = r.U64();
  fault_stats_.cascade_depth_max = r.U64();
  fault_stats_.flows_killed = r.U64();
  fault_stats_.recovery_latency = LoadSamples(r);
  fault_stats_.srlg_recovery_latency = LoadSamples(r);
  guard_stats_.events_shed = r.U64();
  guard_stats_.deadline_misses = r.U64();
  guard_stats_.events_requeued = r.U64();
  guard_stats_.events_quarantined = r.U64();
  guard_stats_.audits_run = r.U64();
  guard_stats_.audit_violations = r.U64();
  guard_stats_.max_queue_length = r.U64();
  probe_stats_.probe_cache_hits = r.U64();
  probe_stats_.probe_cache_misses = r.U64();
  probe_stats_.exec_plan_reuses = r.U64();
  ckpt_stats_.snapshots_taken = r.U64();
  ckpt_stats_.wal_records = r.U64();
}

}  // namespace nu::metrics
