// Runtime invariant auditor. Transient-consistency bugs are exactly the
// kind that survive unit tests and surface only mid-run ("Transiently
// Consistent SDN Updates: Being Greedy is Hard"), so the guard re-derives
// the system's invariants from first principles at runtime instead of
// trusting them by construction. An audit pass recomputes, independently of
// the network's own incremental bookkeeping:
//
//   * capacity conservation — per link, the sum of placed-flow demands must
//     match capacity - residual, never exceed capacity, and never drive the
//     residual negative (unless the run deliberately force-placed flows to
//     break a reported deadlock);
//   * flow/rule coherence — every placed flow must hold a structurally
//     valid path: contiguous src -> dst walk over existing links, loop-free,
//     endpoints matching the flow descriptor, and fully alive (no blackhole
//     through a down link or switch);
//   * queue/quarantine accounting — every event the run has admitted is in
//     exactly one place: queued, active, parked for requeue, completed,
//     shed, or quarantined; a bounded queue never exceeds its bound.
//
// Two failure modes: kFailFast throws AuditFailure at the first violation
// (tests, canary runs); kLogAndCount records every violation and keeps the
// run alive (production telemetry — counters land in metrics::GuardStats).
//
// Cost model (docs/model.md §8): placements point at immutable interned
// paths, so a pass does per-path work once per distinct PathRef, not once
// per flow x hop. Structure (shape, contiguity, loop-freedom) and endpoints
// are memoized per ref for the registry's lifetime; liveness is evaluated
// once per ref per pass, and only while something is down; link loads are
// summed per ref, then spread over each path's links. Per flow, a pass only
// compares endpoints and reads the memo; a flow that fails takes the full
// per-flow check, which alone writes coherence findings.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.h"

namespace nu::guard {

enum class AuditMode : std::uint8_t {
  kLogAndCount,
  kFailFast,
};

[[nodiscard]] const char* ToString(AuditMode mode);

struct AuditorConfig {
  bool enabled = false;
  AuditMode mode = AuditMode::kLogAndCount;
  /// Run a pass every `cadence`-th simulator occurrence. Fault occurrences
  /// always trigger a pass regardless of cadence (faults are when state
  /// corruption happens, if it happens). >= 1.
  std::size_t cadence = 64;
};

/// Where in the run an audit pass happened. Chaos-campaign logs are only
/// actionable when a violation pins down WHEN it was observed, so passes
/// carry the scheduling round and the network's topology epoch, and both
/// land in every violation record.
struct AuditContext {
  /// 1-based scheduling round in progress (0 = outside any round).
  std::size_t round = 0;
  /// net::Network::topology_epoch() at audit time — identifies which
  /// fault-induced topology the violated state was observed under.
  std::uint64_t topology_epoch = 0;
};

struct AuditViolation {
  /// Which invariant family fired:
  /// "capacity" | "coherence" | "accounting" | "drift".
  std::string invariant;
  std::string detail;
  /// Scheduling round and topology epoch of the audit pass that found it.
  std::size_t round = 0;
  std::uint64_t topology_epoch = 0;
};

/// Thrown by fail-fast audits at the first violation.
class AuditFailure : public std::runtime_error {
 public:
  explicit AuditFailure(AuditViolation violation);

  [[nodiscard]] const AuditViolation& violation() const { return violation_; }

 private:
  AuditViolation violation_;
};

/// The simulator-side event accounting an audit pass cross-checks. Every
/// admitted event must be in exactly one bucket.
struct QueueAccounting {
  /// Every event the run has seen so far (shed arrivals included — shedding
  /// is one of the conservation buckets below, never a silent drop).
  std::size_t arrived = 0;
  std::size_t queued = 0;
  std::size_t active = 0;
  /// Aborted by the watchdog, waiting out their requeue backoff.
  std::size_t parked = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t quarantined = 0;
  /// Queue bound; 0 = unbounded.
  std::size_t queue_capacity = 0;
};

/// Dataplane-drift state an audit pass cross-checks (recon subsystem,
/// docs/model.md §16). Bounded-drift invariant: no switch may sit
/// continuously at drift for more than `max_passes` reconcile passes
/// without being quarantined — a reconciler that spins without converging
/// or escalating is a liveness bug, and this is where it surfaces.
struct DriftAuditInput {
  struct Entry {
    NodeId node;
    /// Consecutive reconcile passes that observed the switch at drift.
    std::size_t passes = 0;
  };
  /// Current streaks, ascending by switch id; quarantined switches are
  /// excluded (their drift is excused).
  std::vector<Entry> entries;
  /// Bound; 0 disables the invariant.
  std::size_t max_passes = 0;
};

class Auditor {
 public:
  explicit Auditor(AuditorConfig config = {});

  /// One full audit pass. Returns the number of violations found by this
  /// pass (also appended to violations()). In fail-fast mode the first
  /// violation throws AuditFailure instead. `forced_placements` > 0 relaxes
  /// the capacity and liveness checks — the simulator reports force-placed
  /// flows separately, and they intentionally overcommit links. `context`
  /// (round id, topology epoch) is stamped onto every violation this pass
  /// records. A non-null `drift` additionally checks the bounded-drift
  /// invariant.
  std::size_t Audit(const net::Network& network,
                    const QueueAccounting& accounting,
                    std::size_t forced_placements = 0,
                    const AuditContext& context = {},
                    const DriftAuditInput* drift = nullptr);

  [[nodiscard]] const AuditorConfig& config() const { return config_; }
  [[nodiscard]] std::size_t audits_run() const { return audits_run_; }
  [[nodiscard]] const std::vector<AuditViolation>& violations() const {
    return violations_;
  }

 private:
  /// Records (or throws, in fail-fast mode) one violation.
  void Report(std::string invariant, std::string detail,
              std::size_t& found_this_pass);

  /// Capacity and coherence over every placement, in one walk. `relaxed`
  /// (forced placements exist) allows overcommit and dead paths.
  void AuditPlacements(const net::Network& network, bool relaxed,
                       std::size_t& found);
  void AuditAccounting(const QueueAccounting& accounting, std::size_t& found);
  void AuditDrift(const DriftAuditInput& drift, std::size_t& found);

  /// Memoized structural verdict of one interned path.
  enum class PathCheck : std::uint8_t { kUnchecked, kClean, kMalformed };
  struct PathFacts {
    PathCheck check = PathCheck::kUnchecked;
    /// Endpoints; meaningful once check == kClean.
    NodeId source;
    NodeId destination;
  };

  AuditorConfig config_;
  std::size_t audits_run_ = 0;
  /// Identity of the registry and graph memo_ describes: ref values mean
  /// nothing across registries, and a registry's address can be reused.
  std::uint32_t memo_registry_ = 0;
  const topo::Graph* memo_graph_ = nullptr;
  /// By PathRef value.
  std::vector<PathFacts> memo_;
  // Per-pass scratch, kept to make steady-state passes allocation-free.
  /// Summed demand of the flows placed on each ref, by PathRef value.
  std::vector<Mbps> ref_demand_;
  /// Recomputed load by LinkId value.
  std::vector<Mbps> link_load_;
  /// Liveness this pass by PathRef value: 0 unknown, 1 alive, 2 dead.
  std::vector<std::uint8_t> alive_;
  /// Context of the pass currently running (stamped onto its violations).
  AuditContext context_;
  std::vector<AuditViolation> violations_;
};

}  // namespace nu::guard
