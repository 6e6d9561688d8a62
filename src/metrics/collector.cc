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

template <typename Ar, typename Self>
void Collector::Section(Ar& ar, Self& self) {
  ar.Seq(self.records_, [](Ar& a, auto& rec) {
    a.U64(rec.event);
    a.F64(rec.arrival, rec.exec_start, rec.completion, rec.cost);
    a.U64(rec.flow_count, rec.deferred_flows, rec.aborts, rec.replans,
          rec.deadline_misses);
    a.Enum(rec.status, TerminalStatus::kQuarantined);
  });
  auto& fault = self.fault_stats_;
  ar.U64(fault.installs_attempted, fault.installs_retried,
         fault.installs_failed, fault.events_aborted, fault.events_replanned,
         fault.link_failures, fault.switch_failures, fault.group_faults,
         fault.cascade_failures, fault.cascade_depth_max,
         fault.flows_killed);
  ar.Part(fault.recovery_latency, fault.srlg_recovery_latency);
  auto& guard = self.guard_stats_;
  ar.U64(guard.events_shed, guard.deadline_misses, guard.events_requeued,
         guard.events_quarantined, guard.audits_run, guard.audit_violations,
         guard.max_queue_length);
  auto& probe = self.probe_stats_;
  ar.U64(probe.probe_cache_hits, probe.probe_cache_misses,
         probe.exec_plan_reuses);
  ar.U64(self.ckpt_stats_.snapshots_taken, self.ckpt_stats_.wal_records);
}

void Collector::SaveState(BinWriter& w) const { Section(w, *this); }
void Collector::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::metrics
