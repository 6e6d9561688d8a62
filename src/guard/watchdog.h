// Deadlines, the stuck-event watchdog, and the poison quarantine.
//
// An executing update event can stall indefinitely: its deferred flows may
// wait on capacity that faults keep revoking, or its install batches may
// thrash through retry after retry. PR 1 bounded each *install attempt*;
// this module bounds the *event*: every execution gets a soft deadline
// (base + per-flow budget), and a watchdog aborts executions that overrun
// it — their placements are rolled back and the event is requeued after an
// escalating backoff, giving the network time to heal. Events that miss
// `max_failures` deadlines are poison: instead of livelocking the round
// loop forever they are moved to a quarantine (terminal state
// metrics::TerminalStatus::kQuarantined) and the run continues without
// them. Every transition is counted in metrics::GuardStats.
#pragma once

#include <map>

#include "common/binio.h"
#include "common/types.h"

namespace nu::guard {

struct DeadlineConfig {
  /// Soft deadline budget per execution attempt: base + per_flow * w(U),
  /// measured from the attempt's execution start. 0 disables the watchdog.
  Seconds base_deadline = 0.0;
  Seconds per_flow_deadline = 0.0;
  /// Deadline misses before the event is quarantined. >= 1.
  std::size_t max_failures = 3;
  /// Requeue backoff after the first miss; escalates by backoff_factor per
  /// further miss, capped at max_backoff (mirrors RetryPolicy's envelope).
  Seconds requeue_backoff = 0.5;
  double backoff_factor = 2.0;
  Seconds max_backoff = 30.0;

  [[nodiscard]] bool enabled() const { return base_deadline > 0.0; }

  /// Deadline budget for an event with `flow_count` flows.
  [[nodiscard]] Seconds DeadlineFor(std::size_t flow_count) const;

  /// Un-jittered requeue delay after the `failures`-th consecutive miss
  /// (1-based): min(max_backoff, requeue_backoff * factor^(failures-1)).
  [[nodiscard]] Seconds BackoffAfter(std::size_t failures) const;
};

/// Per-event deadline-miss bookkeeping. The simulator owns one per run;
/// the watchdog decides *whether* an event is poison, the simulator decides
/// *what* rollback and requeueing mean.
class Watchdog {
 public:
  explicit Watchdog(DeadlineConfig config);

  /// Records a deadline miss for `event`. True when the event has now
  /// exhausted its failure budget and must be quarantined.
  bool RecordMiss(EventId event);

  /// Misses recorded so far for `event`.
  [[nodiscard]] std::size_t failures(EventId event) const;

  /// Escalating requeue delay given the event's current miss count
  /// (requires at least one recorded miss).
  [[nodiscard]] Seconds RequeueDelay(EventId event) const;

  [[nodiscard]] const DeadlineConfig& config() const { return config_; }

  /// Serializes the per-event miss counts (ascending event id) for
  /// checkpointing. The config is not persisted — it is reconstructed from
  /// the run configuration on restore.
  void SaveState(BinWriter& w) const;

  /// Restores miss counts serialized by SaveState. Throws CorruptInput on
  /// a repeated event id.
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);

  DeadlineConfig config_;
  /// Ordered by event id: the snapshot's canonical order.
  std::map<EventId::rep_type, std::size_t> failures_;
};

}  // namespace nu::guard
