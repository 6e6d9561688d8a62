// Anti-entropy reconciliation: the periodic read-back verifier that heals
// grey dataplane failures (docs/model.md §16).
//
// Every `period` seconds of virtual time the simulator runs one reconcile
// PASS: prune stale divergence (flows that departed or rerouted away),
// read back each drifting switch's rules (the DriftObservation list),
// classify each divergent rule by cause, and repair it by RE-ISSUING the
// rule through the same grey install pipeline that broke it, under a
// per-switch retry/backoff budget (common/retry.h). A rule whose repair
// budget is exhausted is ABANDONED: it stays visible as residual drift but
// stops gating run completion — the auditor's drift invariant and the
// chaos drift-convergence oracle are what turn unexcused residual into a
// failure.
//
// Each pass also feeds the per-switch health EWMA (recon/health.h); a
// switch that keeps lying escalates Healthy -> Suspect -> Degraded
// (deprioritized in migration planning) -> Quarantined (drained like a
// switch-down fault, its residual drift excused).
//
// The reconciler is deterministic: observations arrive in canonical
// ascending-switch order, repairs draw from the dedicated grey RNG stream
// in that order, and the whole object (health, backoff, streaks, stats)
// serializes into the snapshot's v6 recon section so crash/resume replays
// reconciliation bit-identically.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/binio.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "net/dataplane.h"
#include "net/network_view.h"
#include "recon/health.h"

namespace nu::recon {

struct ReconcilerConfig {
  /// Master switch; grey failures without a reconciler drift forever (the
  /// residual shows up in the report, nothing repairs it).
  bool enabled = false;
  /// Virtual seconds between read-back passes.
  Seconds period = 0.25;
  /// Per-switch repair retry/backoff budget. max_attempts bounds how often
  /// one rule is re-issued before abandonment.
  RetryPolicy retry;
  HealthConfig health;
  /// Auditor drift bound: a switch continuously at drift for more than
  /// this many reconcile passes (and not quarantined) is an audit
  /// violation. 0 disables the invariant.
  std::size_t max_passes_at_drift = 16;
};

/// Counters for the report CSV; owned by the Reconciler but also fed by
/// the simulator's injection sites (issue/lie/straggle/loss happen at
/// install time, outside a pass).
struct ReconStats {
  std::uint64_t passes = 0;
  std::uint64_t rules_issued = 0;
  std::uint64_t rules_verified = 0;
  std::uint64_t ack_lies = 0;
  std::uint64_t stragglers = 0;
  std::uint64_t rules_lost = 0;
  std::uint64_t drift_detected = 0;
  std::uint64_t repair_attempts = 0;
  std::uint64_t repairs_succeeded = 0;
  std::uint64_t repair_failures = 0;
  std::uint64_t rules_abandoned = 0;
  std::uint64_t switches_degraded = 0;
  std::uint64_t switches_quarantined = 0;
  std::uint64_t residual_divergence = 0;
  /// Detection-to-repair virtual seconds (entry.since to resolution).
  Samples repair_latency;
};

/// One switch's read-back result: its divergent flows in ascending order.
struct DriftObservation {
  NodeId node;
  std::vector<FlowId> flows;
};

/// A grey occurrence the pass scheduled: a straggler repair's late apply,
/// or a post-repair rule loss. The simulator turns these into timeline
/// occurrences.
struct DeferredGrey {
  enum class Kind : std::uint8_t { kApply, kLoss };
  Kind kind = Kind::kApply;
  NodeId node;
  FlowId flow;
  Seconds time = 0.0;
};

struct PassResult {
  std::vector<DeferredGrey> deferred;
  /// Switches newly quarantined by this pass, ascending; the simulator
  /// drains each like a switch-down fault.
  std::vector<NodeId> quarantine;
  std::size_t drifting_switches = 0;
};

/// A switch's consecutive-passes-at-drift streak, for the auditor.
struct DriftStreak {
  NodeId node;
  std::size_t passes = 0;
};

class Reconciler {
 public:
  explicit Reconciler(ReconcilerConfig config = {});

  [[nodiscard]] const ReconcilerConfig& config() const { return config_; }

  /// Read-back: every drifting switch's observation, ascending.
  [[nodiscard]] static std::vector<DriftObservation> CollectDrift(
      const net::DataplaneState& dp);

  /// Drops divergence that no longer maps to intent: the flow departed,
  /// rerouted off the switch, or the switch went down. Run before
  /// collecting observations.
  static void Prune(const net::NetworkView& network, net::DataplaneState& dp);

  /// One reconcile pass over `drift` (must be ascending by switch id, as
  /// CollectDrift produces). Mutates the dataplane (detection, repair,
  /// abandonment), the health tracker, and the stats; draws from `rng` in
  /// canonical order.
  PassResult Pass(const std::vector<DriftObservation>& drift,
                  net::DataplaneState& dp, const fault::GreyFailureModel& grey,
                  Seconds now, Rng& rng);

  [[nodiscard]] const SwitchHealthTracker& health() const { return health_; }
  [[nodiscard]] ReconStats& stats() { return stats_; }
  [[nodiscard]] const ReconStats& stats() const { return stats_; }

  /// Current consecutive-drift streaks (ascending by switch id);
  /// quarantined switches are excluded (their drift is excused).
  [[nodiscard]] std::vector<DriftStreak> DriftStreaks() const {
    return streaks_;
  }

  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

  friend bool operator==(const Reconciler& a, const Reconciler& b);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);

  struct RepairState {
    std::size_t consecutive_failures = 0;
    Seconds next_attempt = 0.0;
  };

  ReconcilerConfig config_;
  SwitchHealthTracker health_;
  ReconStats stats_;
  std::map<NodeId::rep_type, RepairState> repair_;
  /// Ascending by switch id, each on a tracked, unquarantined switch.
  std::vector<DriftStreak> streaks_;
};

}  // namespace nu::recon
