// The event loop's per-entry and per-event state: timeline occurrences and
// the update events currently executing, each with one snapshot section
// whose load range-checks every index it restores. A snapshot that passes
// its CRC but names an unknown event, fault, switch or flow slot throws
// CorruptInput, so recovery falls back to an older snapshot instead of
// aborting (or reading out of bounds) when the entry later fires. Also the
// helpers the event loop shares with the flow-level baseline.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/binio.h"
#include "update/update_event.h"

namespace nu::sim {

/// Arrivals and occurrences within this of the clock are due.
inline constexpr double kTimeEpsilon = 1e-9;

/// How often a deferred-flow retry escalates from a cheap admission check to
/// full migration planning.
inline constexpr std::size_t kMigrationRetryPeriod = 20;

using WallClock = std::chrono::steady_clock;

/// Host seconds since `start`: wall-clock reporting only, never
/// deterministic state.
inline double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// Events sorted by arrival time (stable on ties).
inline std::vector<const update::UpdateEvent*> SortedByArrival(
    std::span<const update::UpdateEvent> events) {
  std::vector<const update::UpdateEvent*> sorted;
  sorted.reserve(events.size());
  for (const update::UpdateEvent& e : events) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const update::UpdateEvent* a,
                      const update::UpdateEvent* b) {
                     return a->arrival_time() < b->arrival_time();
                   });
  return sorted;
}

/// The run's events by id.
using EventIndex =
    std::unordered_map<EventId::rep_type, const update::UpdateEvent*>;

/// An event pointer on the wire: the event's id, resolved against the run's
/// `events` when loading (null when saving). Throws CorruptInput when the
/// run has no such event.
template <typename Ar, typename Ptr>
void EventRef(Ar& ar, Ptr& event, const EventIndex* events) {
  if constexpr (Ar::kLoading) {
    const auto it = events->find(ar.U64());
    ar.Check(it != events->end(), "unknown event id in snapshot");
    event = it->second;
  } else {
    ar.U64(event->id());
  }
}

/// What a restored timeline entry's indices must fall inside: the run's
/// events, the fault plan's specs (kFault), the dynamic fault list restored
/// before the timeline (kCascadeFault) and the graph's nodes (grey kinds).
struct OccurrenceBounds {
  const EventIndex& events;
  std::size_t plan_specs = 0;
  std::size_t dynamic_faults = 0;
  std::size_t nodes = 0;
};

/// Timeline occurrences.
///   kDeparture:           an event flow's transmission finished — release
///                         its bandwidth.
///   kBackgroundDeparture: a background flow ended (churn) — release and
///                         spawn a replacement draw.
///   kInstallDone:         a batch of an event's flow installations
///                         finished — progress the event toward completion.
///   kInstallAborted:      a batch exhausted its install retries — roll its
///                         placements back and re-defer the flows.
///   kFault:               a scheduled FaultSpec fires — flip topology state
///                         and strand the flows crossing the dead element.
///   kWatchdog:            an execution attempt's soft deadline expired —
///                         abort + roll back the attempt if it is still the
///                         live one (guard subsystem).
///   kRequeue:             a watchdog-aborted event's backoff elapsed — it
///                         re-enters the queue through admission control.
///   kCascadeFault:        a secondary failure decided by the cascade engine
///                         (sustained overload) fires — same victim handling
///                         as kFault, but the spec lives in the run's
///                         dynamic-fault list, not the plan.
///   kGreyApply:           a straggling (or repair-re-issued) dataplane rule
///                         finally lands on its switch — the divergence it
///                         covered resolves (recon subsystem).
///   kRuleLoss:            a switch silently evicts a rule it had applied —
///                         new divergence appears without any controller
///                         action.
///   kReconcile:           the periodic anti-entropy read-back pass runs
///                         (recon::Reconciler): detect drift, repair it,
///                         feed switch health. At most one is armed at a
///                         time; passes re-arm themselves while work
///                         remains.
struct Occurrence {
  enum class Kind : std::uint8_t {
    kDeparture,
    kBackgroundDeparture,
    kInstallDone,
    kInstallAborted,
    kFault,
    kWatchdog,
    kRequeue,
    kCascadeFault,  // appended: snapshot payloads store the numeric value
    kGreyApply,     // appended (snapshot v6)
    kRuleLoss,      // appended (snapshot v6)
    kReconcile,     // appended (snapshot v6)
  };
  Kind kind = Kind::kDeparture;
  FlowId flow;                 // departures
  EventId event;               // install batches / watchdog / requeue
  /// kFault: index into the fault plan's specs; kCascadeFault: index into
  /// the run's dynamic (cascade-generated) fault list; kGreyApply /
  /// kRuleLoss: the target switch's node id.
  std::size_t fault_index = 0;
  /// kInstallDone / kInstallAborted: the batch's placed flow ids. Entries no
  /// longer in the network were killed by a fault mid-install and are
  /// skipped (flow ids are never reused).
  std::vector<FlowId> flows;
  /// kInstallDone / kInstallAborted / kWatchdog: the activation generation
  /// the occurrence was scheduled for. A watchdog abort + requeue restarts
  /// the event under a fresh generation; occurrences of dead generations
  /// are stale and skipped.
  std::uint64_t generation = 0;

  void Save(BinWriter& w) const { Section(w, *this, nullptr); }
  static Occurrence Load(BinReader& r, const OccurrenceBounds& bounds) {
    Occurrence occ;
    Section(r, occ, &bounds);
    return occ;
  }

  /// The entry's fields; loading checks them against `bounds` (null when
  /// saving).
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& occ, const OccurrenceBounds* bounds) {
    ar.Enum(occ.kind, Kind::kReconcile);
    ar.U64(occ.flow, occ.event, occ.fault_index);
    ar.Seq(occ.flows, [](Ar& a, auto& flow) { a.U64(flow); });
    ar.U64(occ.generation);
    if constexpr (Ar::kLoading) {
      const Kind k = occ.kind;
      // Kinds whose handler resolves the event id need an event of the run.
      const bool install =
          k == Kind::kInstallDone || k == Kind::kInstallAborted;
      const auto event = bounds->events.find(occ.event.value());
      ar.Check(event != bounds->events.end() ||
                   !(install || k == Kind::kWatchdog || k == Kind::kRequeue),
               "unknown event id in snapshot");
      // The plan spec, dynamic fault or switch the handler dereferences.
      const std::size_t limit =
          k == Kind::kFault          ? bounds->plan_specs
          : k == Kind::kCascadeFault ? bounds->dynamic_faults
          : k == Kind::kGreyApply || k == Kind::kRuleLoss
              ? bounds->nodes
              : std::numeric_limits<std::size_t>::max();
      ar.Check(occ.fault_index < limit, "occurrence index out of range");
      // An install batch counts toward its event's installed flows.
      ar.Check(!install || occ.flows.size() <= event->second->flow_count(),
               "install batch larger than its event");
    }
  }
};

/// An update event currently executing (installing flows, possibly waiting
/// for capacity for its deferred flows).
struct ActiveEvent {
  const update::UpdateEvent* event = nullptr;
  /// Flows whose installation has finished.
  std::size_t installed = 0;
  /// Installation batches in flight (scheduled kInstallDone occurrences).
  std::size_t batches_in_flight = 0;
  /// Indices of flows waiting for capacity, in event order.
  std::deque<std::size_t> deferred;
  /// Consecutive cheap-retry failures; full migration planning runs only
  /// every kMigrationRetryPeriod-th failure to keep churn retries cheap.
  std::size_t retry_failures = 0;
  /// Which activation of the event this is (1-based; > 1 only after
  /// watchdog abort + requeue). Guards against stale timeline occurrences
  /// from aborted activations.
  std::uint64_t generation = 1;

  // --- Fault bookkeeping (maintained when faults or the watchdog are on) --
  // Ordered containers: snapshots and the watchdog rollback walk them in
  // ascending key order, which is their iteration order.
  /// Placed flow id -> index into event->flows(). Lets fault handlers map a
  /// stranded placement back to the event flow that must be replanned.
  std::map<FlowId::rep_type, std::size_t> flow_index;
  /// Placed ids whose installation completed (subset of flow_index keys).
  /// Killing one of these un-installs it (decrements `installed`).
  std::set<FlowId::rep_type> installed_ids;
  /// One disrupted-flow recovery in progress: when the disruption happened
  /// and whether a correlated (SRLG) incident caused it — group-caused
  /// recoveries also feed the per-SRLG recovery-latency columns.
  struct PendingRecovery {
    Seconds time = 0.0;
    bool srlg = false;
  };
  /// Event flow index -> its FIRST disruption (fault kill or install
  /// abort). Cleared — and a recovery latency recorded — when a replacement
  /// placement finishes installing.
  std::map<std::size_t, PendingRecovery> pending_recovery;

  [[nodiscard]] bool Complete() const {
    return installed == event->flow_count();
  }

  void Save(BinWriter& w) const { Section(w, *this, nullptr); }
  static ActiveEvent Load(BinReader& r, const EventIndex& events) {
    ActiveEvent ae;
    Section(r, ae, &events);
    return ae;
  }

  /// The event id, then every field; loading resolves the id in `events`
  /// (null when saving) and bounds each flow index by the event's flows.
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& ae, const EventIndex* events) {
    EventRef(ar, ae.event, events);
    const std::size_t flows = ae.event->flow_count();
    ar.Index(ae.installed, flows + 1, "installed count");
    ar.U64(ae.batches_in_flight);
    ar.Seq(ae.deferred, [flows](Ar& a, auto& index) {
      a.Index(index, flows, "deferred flow");
    });
    ar.U64(ae.retry_failures, ae.generation);
    ar.Seq(ae.flow_index, [flows](Ar& a, auto& entry) {
      a.U64(entry.first);
      a.Index(entry.second, flows, "flow index");
    });
    ar.Seq(ae.installed_ids, [](Ar& a, auto& id) { a.U64(id); });
    ar.Seq(ae.pending_recovery, [flows](Ar& a, auto& entry) {
      a.Index(entry.first, flows, "recovering flow");
      a.F64(entry.second.time);
      a.Bool(entry.second.srlg);
    });
  }
};

}  // namespace nu::sim
