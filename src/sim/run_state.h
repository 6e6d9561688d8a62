// The event loop's per-entry and per-event state: timeline occurrences and
// the update events currently executing, each with its snapshot writer and
// a reader that range-checks every index it restores. A snapshot that
// passes its CRC but names an unknown event, fault, switch or flow slot
// throws CorruptInput, so recovery falls back to an older snapshot instead
// of aborting (or reading out of bounds) when the entry later fires. Also
// the helpers the event loop shares with the flow-level baseline.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
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

/// Reads an event id and resolves it; throws CorruptInput when the run has
/// no such event.
inline const update::UpdateEvent& LoadEvent(BinReader& r,
                                            const EventIndex& events) {
  const auto it = events.find(r.U64());
  if (it == events.end()) throw CorruptInput("unknown event id in snapshot");
  return *it->second;
}

/// Reads an index that must be below `bound`.
inline std::size_t LoadIndex(BinReader& r, std::size_t bound,
                             const char* what) {
  const std::uint64_t v = r.U64();
  if (v >= bound) throw CorruptInput(std::string(what) + " out of range");
  return static_cast<std::size_t>(v);
}

inline void SaveRngState(BinWriter& w, const Rng::State& s) {
  for (std::uint64_t word : s.words) w.U64(word);
  w.F64(s.spare_normal);
  w.Bool(s.has_spare_normal);
}

inline Rng::State LoadRngState(BinReader& r) {
  Rng::State s;
  for (std::uint64_t& word : s.words) word = r.U64();
  s.spare_normal = r.F64();
  s.has_spare_normal = r.Bool();
  // The all-zero word vector is the one invalid xoshiro state; a snapshot
  // can only contain it if its bytes are garbage.
  if (s.words[0] == 0 && s.words[1] == 0 && s.words[2] == 0 &&
      s.words[3] == 0) {
    throw CorruptInput("all-zero rng state");
  }
  return s;
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

  void Save(BinWriter& w) const {
    w.U8(static_cast<std::uint8_t>(kind));
    w.U64(flow.value());
    w.U64(event.value());
    w.U64(fault_index);
    w.Size(flows.size());
    for (FlowId fid : flows) w.U64(fid.value());
    w.U64(generation);
  }

  static Occurrence Load(BinReader& r, const OccurrenceBounds& bounds) {
    Occurrence occ;
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(Kind::kReconcile)) {
      throw CorruptInput("bad occurrence kind");
    }
    occ.kind = static_cast<Kind>(kind);
    const Kind k = occ.kind;
    occ.flow = FlowId{r.U64()};
    // Kinds whose handler resolves the event id need an event of the run.
    occ.event = k == Kind::kInstallDone || k == Kind::kInstallAborted ||
                        k == Kind::kWatchdog || k == Kind::kRequeue
                    ? LoadEvent(r, bounds.events).id()
                    : EventId{r.U64()};
    // The plan spec, dynamic fault or switch the handler dereferences.
    const std::size_t limit =
        k == Kind::kFault          ? bounds.plan_specs
        : k == Kind::kCascadeFault ? bounds.dynamic_faults
        : k == Kind::kGreyApply || k == Kind::kRuleLoss
            ? bounds.nodes
            : std::numeric_limits<std::size_t>::max();
    occ.fault_index = LoadIndex(r, limit, "occurrence index");
    occ.flows = r.Vec<FlowId>([](BinReader& in) { return FlowId{in.U64()}; });
    // An install batch counts toward its event's installed flows.
    if ((k == Kind::kInstallDone || k == Kind::kInstallAborted) &&
        occ.flows.size() > bounds.events.at(occ.event.value())->flow_count()) {
      throw CorruptInput("install batch larger than its event");
    }
    occ.generation = r.U64();
    return occ;
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

  /// Writes the event id, then every field.
  void Save(BinWriter& w) const {
    w.U64(event->id().value());
    w.U64(installed);
    w.U64(batches_in_flight);
    w.Size(deferred.size());
    for (std::size_t idx : deferred) w.U64(idx);
    w.U64(retry_failures);
    w.U64(generation);
    w.Size(flow_index.size());
    for (const auto& [rep, idx] : flow_index) {
      w.U64(rep);
      w.U64(idx);
    }
    w.Size(installed_ids.size());
    for (FlowId::rep_type rep : installed_ids) w.U64(rep);
    w.Size(pending_recovery.size());
    for (const auto& [idx, pr] : pending_recovery) {
      w.U64(idx);
      w.F64(pr.time);
      w.Bool(pr.srlg);
    }
  }

  static ActiveEvent Load(BinReader& r, const EventIndex& events) {
    ActiveEvent ae;
    ae.event = &LoadEvent(r, events);
    const std::size_t flows = ae.event->flow_count();
    ae.installed = LoadIndex(r, flows + 1, "installed count");
    ae.batches_in_flight = static_cast<std::size_t>(r.U64());
    const std::size_t deferred_size = r.Size();
    for (std::size_t j = 0; j < deferred_size; ++j) {
      ae.deferred.push_back(LoadIndex(r, flows, "deferred flow"));
    }
    ae.retry_failures = static_cast<std::size_t>(r.U64());
    ae.generation = r.U64();
    const std::size_t index_size = r.Size();
    for (std::size_t j = 0; j < index_size; ++j) {
      const FlowId::rep_type rep = r.U64();
      ae.flow_index.emplace(rep, LoadIndex(r, flows, "flow index"));
    }
    const std::size_t installed_size = r.Size();
    for (std::size_t j = 0; j < installed_size; ++j) {
      ae.installed_ids.insert(r.U64());
    }
    const std::size_t recovery_size = r.Size();
    for (std::size_t j = 0; j < recovery_size; ++j) {
      const std::size_t idx = LoadIndex(r, flows, "recovering flow");
      PendingRecovery pr;
      pr.time = r.F64();
      pr.srlg = r.Bool();
      ae.pending_recovery.emplace(idx, pr);
    }
    return ae;
  }
};

}  // namespace nu::sim
