// Inter-event scheduling interface (Section III-C / IV). Each round the
// simulator asks the scheduler which queued update event(s) to execute next.
// Schedulers see the queue through SchedulingContext, which also provides
// the two probes the paper's methods use:
//   * ProbeCost        — plan an event against the current network and return
//                        its Cost(U) (LMTF's comparison metric). Expensive;
//                        charged to the run's plan time.
//   * ProbeCoFeasible  — can this event be executed together with the
//                        already-selected ones? (P-LMTF's opportunistic
//                        check). Cheaper; also charged.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "update/update_event.h"

namespace nu::sched {

/// Scheduler's view of one queued event.
struct QueuedEvent {
  const update::UpdateEvent* event = nullptr;
  /// Position is implied by index in the queue span (arrival order).
};

/// Backpressure view of the bounded update queue (guard subsystem). The
/// queue a scheduler sees holds only admitted events — overload shedding
/// already happened — but pressure lets policies adapt while the system is
/// saturated (e.g. LMTF/P-LMTF widen their candidate sample to drain
/// faster). `capacity == 0` means admission control is off.
struct QueuePressure {
  std::size_t capacity = 0;
  std::size_t length = 0;
  /// Events shed by admission control so far this run.
  std::size_t shed_total = 0;

  [[nodiscard]] bool Overloaded() const {
    return capacity > 0 && length >= capacity;
  }
};

class SchedulingContext {
 public:
  virtual ~SchedulingContext() = default;

  /// Queued events in arrival order. Non-empty when Decide is called.
  [[nodiscard]] virtual std::span<const QueuedEvent> Queue() const = 0;

  /// Cost(U) of the event at `index`, planned against the current network.
  virtual Mbps ProbeCost(std::size_t index) = 0;

  /// Batch form of ProbeCost: fills `out[i] = ProbeCost(indices[i])`.
  /// `out.size() >= indices.size()`. The default calls ProbeCost
  /// sequentially; the simulator overrides it to plan the cache misses
  /// together, on the pod-sharded engine when SimConfig::shards is on.
  /// Results and all accounting are identical to the sequential calls by
  /// contract.
  virtual void ProbeCosts(std::span<const std::size_t> indices,
                          std::span<Mbps> out);

  /// True when the event at `index` can be fully executed simultaneously
  /// with the events at `selected` (what-if against the current network).
  virtual bool ProbeCoFeasible(std::span<const std::size_t> selected,
                               std::size_t index) = 0;

  /// Randomness source for sampling-based schedulers.
  virtual Rng& rng() = 0;

  /// Current backpressure state. Defaults to "no admission control" so
  /// contexts predating the guard subsystem need not override it.
  [[nodiscard]] virtual QueuePressure Pressure() const { return {}; }

  /// Brownout degradation level requested by the serving layer: 0 = full
  /// quality, 1 = shrink the probe candidate sample, >= 2 = cheapest path
  /// (FIFO). Defaults to 0 so contexts predating serve/ need not override
  /// it; only serve::DegradableScheduler reads it.
  [[nodiscard]] virtual int DegradationLevel() const { return 0; }
};

struct Decision {
  /// Queue indices to execute this round; front entry is the (new) head.
  /// Must be non-empty and duplicate-free.
  std::vector<std::size_t> selected;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Picks the events for the next round. The queue is non-empty.
  [[nodiscard]] virtual Decision Decide(SchedulingContext& context) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Validates a decision against a queue size (non-empty, in-range, unique).
[[nodiscard]] bool IsValidDecision(const Decision& decision,
                                   std::size_t queue_size);

}  // namespace nu::sched
