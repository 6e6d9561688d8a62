// Per-event measurement records and their collection. The five metrics of
// the paper's Section V-A are all derived from these records: total update
// cost, average ECT, tail ECT, total plan time, and event queuing delay.
#pragma once

#include <vector>

#include "common/binio.h"
#include "common/stats.h"
#include "common/types.h"

namespace nu::metrics {

/// How an update event's lifecycle ended. Every admitted event reaches
/// exactly one terminal state by the end of a run:
///   kCompleted   — all flows installed (the only state with an ECT).
///   kShed        — dropped by overload admission control before it ever
///                  started executing.
///   kAborted     — started executing at least once, was rolled back by the
///                  watchdog, and was then shed from a full queue while
///                  waiting to retry.
///   kQuarantined — missed its deadline max_failures times (poison event);
///                  removed from the round loop permanently.
enum class TerminalStatus : std::uint8_t {
  kPending,  // still in flight (non-terminal)
  kCompleted,
  kShed,
  kAborted,
  kQuarantined,
};

[[nodiscard]] const char* ToString(TerminalStatus status);

/// One update event's lifecycle measurements.
struct EventRecord {
  EventId event = EventId::invalid();
  /// When the event entered the update queue.
  Seconds arrival = 0.0;
  /// When its FIRST execution started (after the scheduling decision and
  /// plan); -1 while the event has never executed.
  Seconds exec_start = -1.0;
  /// When its last flow completed; -1 unless kCompleted.
  Seconds completion = -1.0;
  /// Cost(U): migrated traffic attributed to this event (Mbps).
  Mbps cost = 0.0;
  /// Number of flows in the event.
  std::size_t flow_count = 0;
  /// Flows that could not be placed at execution time and were deferred.
  std::size_t deferred_flows = 0;
  /// Install batches of this event aborted after exhausting retries.
  std::size_t aborts = 0;
  /// Times a fault forced this event's in-flight flows back to replanning.
  std::size_t replans = 0;
  /// Watchdog deadline misses (each one aborted an execution attempt).
  std::size_t deadline_misses = 0;
  /// How the event's lifecycle ended (kPending only mid-run).
  TerminalStatus status = TerminalStatus::kPending;

  [[nodiscard]] bool terminal() const {
    return status != TerminalStatus::kPending;
  }

  /// Queuing delay: arrival -> execution start.
  [[nodiscard]] Seconds QueuingDelay() const { return exec_start - arrival; }
  /// Event completion time: arrival -> last flow done (includes queuing).
  [[nodiscard]] Seconds Ect() const { return completion - arrival; }
};

/// Run-wide fault-and-recovery counters (zero when fault injection is
/// off). Attempt counting covers every install batch once the fault layer
/// is active, so attempted == batches when nothing flakes.
struct FaultStats {
  std::size_t installs_attempted = 0;
  std::size_t installs_retried = 0;
  /// Batches whose retries were exhausted (each triggers an abort+rollback).
  std::size_t installs_failed = 0;
  /// Install-batch aborts (rolled back, flows re-deferred for replanning).
  std::size_t events_aborted = 0;
  /// (event, fault) replanning hits: a fault stranded in-flight flows of an
  /// active event, which were re-planned on surviving paths.
  std::size_t events_replanned = 0;
  std::size_t link_failures = 0;
  std::size_t switch_failures = 0;
  /// Correlated (SRLG) group incidents that fired — a pod power event or
  /// core-plane loss counts once here, however many elements it took down.
  std::size_t group_faults = 0;
  /// Secondary failures injected by the overload cascade engine.
  std::size_t cascade_failures = 0;
  /// Deepest cascade chain observed (primary fault = 1, each
  /// overload-triggered secondary adds one).
  std::size_t cascade_depth_max = 0;
  /// Placed flows removed because a fault killed their path.
  std::size_t flows_killed = 0;
  /// Disruption -> successful reinstall latencies (seconds), per recovered
  /// flow. Mean/percentiles feed the report; the raw samples are kept so a
  /// resumed run's percentiles match an uninterrupted one's.
  Samples recovery_latency;
  /// Recovery latencies of flows stranded by GROUP incidents specifically —
  /// the per-SRLG recovery story, separate from single-element faults.
  Samples srlg_recovery_latency;
};

/// Run-wide overload-guard and auditor counters (all zero when the guard
/// subsystem is disabled).
struct GuardStats {
  /// Events dropped by admission control (terminal kShed or kAborted).
  std::size_t events_shed = 0;
  /// Watchdog firings: an execution attempt overran its soft deadline and
  /// was aborted + rolled back.
  std::size_t deadline_misses = 0;
  /// Aborted events re-admitted to the queue after their backoff.
  std::size_t events_requeued = 0;
  /// Poison events moved to quarantine after max_failures misses.
  std::size_t events_quarantined = 0;
  /// Invariant-auditor passes run and total violations they found.
  std::size_t audits_run = 0;
  std::size_t audit_violations = 0;
  /// High-water mark of the update queue length.
  std::size_t max_queue_length = 0;
};

/// Run-wide probe counters. All three are deterministic and ride in
/// snapshots. None of them changes modeled time, only how fast it is
/// computed.
struct ProbeStats {
  /// Cost probes answered from the per-event epoch-keyed cache.
  std::size_t probe_cache_hits = 0;
  /// Cost probes that had to plan (and then populated the cache).
  std::size_t probe_cache_misses = 0;
  /// Winner executions that replayed the cached probe plan instead of
  /// re-planning the event at commit time.
  std::size_t exec_plan_reuses = 0;
};

/// Run-wide checkpointing counters (all zero with checkpointing off).
/// Both counters are deterministic and are themselves serialized into
/// snapshots, so an uninterrupted run and a crash+recover run report the
/// same totals: a recovered process inherits the counts up to the restored
/// snapshot and re-counts replayed journal records as it verifies them.
struct CkptStats {
  /// Snapshots written since the run started (cumulative across recovery).
  std::size_t snapshots_taken = 0;
  /// Committed operations journaled since the run started (cumulative).
  std::size_t wal_records = 0;
};

class Collector {
 public:
  void OnArrival(EventId event, Seconds time, std::size_t flow_count);
  void OnExecutionStart(EventId event, Seconds time);
  void OnCost(EventId event, Mbps added_cost);
  void OnDeferredFlow(EventId event);
  void OnCompletion(EventId event, Seconds time);

  // --- Fault lifecycle ---------------------------------------------------
  /// One install batch went through the flaky pipeline with `attempts`
  /// tries; `failed` when retries were exhausted.
  void OnInstallBatch(std::size_t attempts, bool failed);
  /// A batch of `event` aborted (rolled back) after exhausted retries.
  void OnInstallAborted(EventId event);
  /// A fault stranded in-flight flows of `event`; they were re-deferred.
  void OnEventReplanned(EventId event);
  /// A scheduled fault fired.
  void OnFault(bool link_fault);
  /// A correlated group (SRLG) incident fired — one call per incident, on
  /// top of the element-level counting its members may add.
  void OnGroupFault();
  /// The cascade engine injected a secondary failure at `depth`.
  void OnCascadeFailure(std::size_t depth);
  /// A placed flow was removed by a fault.
  void OnFlowKilled();
  /// A disrupted flow reinstalled `latency` seconds after its disruption.
  /// `srlg` marks flows stranded by a group incident (their latencies also
  /// feed the per-SRLG recovery columns).
  void OnRecovery(Seconds latency, bool srlg = false);

  // --- Guard lifecycle ---------------------------------------------------
  /// Admission control shed `event` at `time`. Events that never executed
  /// terminate kShed; events with a past execution start (watchdog-aborted,
  /// shed while requeued) terminate kAborted.
  void OnShed(EventId event, Seconds time);
  /// The watchdog aborted an execution attempt of `event` (deadline miss).
  void OnDeadlineMiss(EventId event);
  /// A watchdog-aborted event re-entered the queue after its backoff.
  void OnRequeued(EventId event);
  /// `event` exhausted its deadline-failure budget and was quarantined.
  void OnQuarantined(EventId event, Seconds time);
  /// One auditor pass ran and found `violations` invariant violations.
  void OnAudit(std::size_t violations);
  /// Update-queue length observed after an admission; keeps the high-water
  /// mark.
  void OnQueueDepth(std::size_t length);

  // --- Checkpointing -----------------------------------------------------
  /// A snapshot is being taken (counted before the payload is serialized,
  /// so the snapshot includes its own count — see CkptStats).
  void OnSnapshotTaken() { ++ckpt_stats_.snapshots_taken; }
  /// One committed operation was journaled (or replay-verified).
  void OnWalRecord() { ++ckpt_stats_.wal_records; }

  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }
  [[nodiscard]] const GuardStats& guard_stats() const { return guard_stats_; }
  [[nodiscard]] const ProbeStats& probe_stats() const { return probe_stats_; }
  /// The probes of a run count straight into here.
  [[nodiscard]] ProbeStats& probe_stats() { return probe_stats_; }
  [[nodiscard]] const CkptStats& ckpt_stats() const { return ckpt_stats_; }

  /// All records; complete once every event has a completion time.
  [[nodiscard]] const std::vector<EventRecord>& records() const {
    return records_;
  }

  /// Every record reached a terminal state (completed, or — with the guard
  /// subsystem on — shed, aborted, or quarantined).
  [[nodiscard]] bool AllTerminal() const;

  [[nodiscard]] bool AllComplete() const;

  [[nodiscard]] Samples EctSamples() const;
  [[nodiscard]] Samples QueuingDelaySamples() const;
  [[nodiscard]] Mbps TotalCost() const;

  /// Serializes every record and counter for checkpointing (records in
  /// insertion order — that order is part of the run's observable output).
  void SaveState(BinWriter& w) const;

  /// Restores state serialized by SaveState, replacing all contents.
  /// Throws CorruptInput on a status byte out of range; the event loop's
  /// section checks the records against the arrivals it has ingested.
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);
  EventRecord& Find(EventId event);

  std::vector<EventRecord> records_;
  FaultStats fault_stats_;
  GuardStats guard_stats_;
  ProbeStats probe_stats_;
  CkptStats ckpt_stats_;
};

}  // namespace nu::metrics
