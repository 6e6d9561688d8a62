// The discrete-event simulator that runs a queue of update events through an
// inter-event scheduler (event-level mode) or through the per-flow baseline
// (flow-level mode) and measures the paper's five metrics.
//
// Semantics (event-level):
//   * Update events enter the queue at their arrival times.
//   * When no round is active and the queue is non-empty, the scheduler is
//     consulted; its probes are charged to virtual time via the CostModel.
//   * The selected events execute together as one round: each is planned and
//     committed (migrations applied, flows placed). An event COMPLETES when
//     its update is fully installed — migration delay plus per-flow install
//     time after its execution starts. This matches the paper's model
//     (Fig. 3 expresses both execution time and update cost in seconds of
//     update work); flow transmission is not part of the ECT.
//   * Installed flows transmit in the background: each occupies its
//     bandwidth until install-time + duration, then departs, freeing
//     capacity for later rounds. Flows that fit nowhere even with migration
//     are deferred and retried on departures — the event (and with it the
//     round) blocks until they install, which is exactly the head-of-line
//     blocking the paper's schedulers attack.
//   * The next round starts once every event of the current round completes
//     — sequential rounds, as in the paper; P-LMTF gets parallelism by
//     selecting multiple events per round.
//   * Background traffic churns when configured (ChurnConfig): background
//     flows end after their durations and fresh draws replace them, keeping
//     update costs in flux (Section III-C). Without churn, background is
//     static (the paper's Fig. 7 setting) and only event flows depart.
//
// Flow-level mode interleaves the flows of all queued events round-robin and
// dispatches them one at a time, blocking on the queue head when a flow fits
// nowhere — the event-blind baseline of Figs. 2/4/5.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.h"
#include "fault/fault_plan.h"
#include "guard/guard.h"
#include "metrics/report.h"
#include "metrics/shard_stats.h"
#include "net/network.h"
#include "recon/reconciler.h"
#include "sched/scheduler.h"
#include "serve/runtime.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "trace/background.h"
#include "update/planner.h"

namespace nu::sim {

/// Thrown by Simulator::Resume when recovery cannot proceed: no snapshot in
/// the checkpoint directory validates, or deterministic re-execution
/// produced an operation that differs bitwise from the journaled one.
class RecoveryError : public std::runtime_error {
 public:
  explicit RecoveryError(const std::string& what)
      : std::runtime_error("recovery error: " + what) {}
};

/// Background-traffic churn: existing background flows end after their
/// durations and are replaced by fresh draws, so "the update queue is in
/// flux due to the changed network traffic" (Section III-C) — the dynamics
/// LMTF's per-round cost re-probing exploits. Disable to reproduce the
/// static-background setting of the paper's Fig. 7.
struct ChurnConfig {
  bool enabled = false;
  /// Placement constraints for replacement flows (same per-tier headroom as
  /// the initial injection keeps utilization stationary).
  trace::BackgroundOptions placement;
  /// Replacement draws attempted per departure before giving up.
  std::size_t replacement_attempts = 3;
};

struct SimConfig {
  CostModel cost_model;
  /// Tail percentile for the report (1.0 = max).
  double tail_percentile = 1.0;
  update::MigrationOptions migration_options;
  net::PathSelection path_selection = net::PathSelection::kWidest;
  /// RNG seed for scheduler sampling and churn.
  std::uint64_t seed = 1;
  /// Record a per-round log (who executed when) for examples/debugging.
  bool keep_round_log = false;
  /// Cost probes use update::QuickCostScore (per-flow deficit estimates,
  /// ~10x cheaper) instead of full event planning. The executed event is
  /// then planned for real at execution time. Trades probe fidelity for
  /// plan time — see bench_ablation_quickprobe.
  bool quick_cost_probes = false;
  /// Epoch-keyed probe-cost cache: a re-probe of an event under an
  /// unchanged network state epoch returns the cached cost, and executing a
  /// probed winner replays the cached plan instead of re-planning. Only
  /// wall-clock changes — modeled plan time, probe counters, and decisions
  /// are identical either way. What-if probes always run on copy-on-write
  /// overlays (net::NetworkOverlay; docs/model.md §9).
  bool probe_cost_cache = true;
  /// Pod-sharded parallel engine (docs/model.md §15), the simulator's only
  /// parallel path: partition the fabric into this many shards (a k-ary
  /// Fat-Tree is naturally k pods) and plan each round's probe misses on a
  /// worker pool, one task per home shard. 0 or 1 = off. The coordinator
  /// remains the single decision/mutation authority, so a sharded run is
  /// bit-identical to an unsharded one — same decisions, same records,
  /// same report, same snapshot bytes — at any thread count. Effective
  /// only with full (non-quick) probes.
  std::size_t shards = 0;
  /// Worker threads for the sharded engine; 0 = min(shards, 8).
  std::size_t shard_threads = 0;
  /// P-LMTF co-scheduling admits only candidates whose current plan
  /// migrates at most this much traffic (Mbps). Opportunistic updates are
  /// meant to be near-free wins — co-scheduling an expensive event would
  /// pay migration cost that waiting (and traffic churn) might avoid. Set
  /// to infinity to co-schedule any fully feasible candidate.
  Mbps plmtf_co_migration_allowance = 100.0;
  ChurnConfig churn;
  /// Fault injection (event-level Run only): scheduled link/switch outages
  /// plus the flaky-install model and its retry policy. Disabled by default;
  /// a disabled config draws nothing from any Rng, so enabling faults never
  /// perturbs the scheduler or churn streams of a fixed-seed run.
  ///
  /// Semantics when enabled:
  ///   * Planning and placement use only alive paths (dead links/switches
  ///     are excluded; path caches refresh on every topology transition).
  ///   * A down-fault removes every placed flow crossing the dead element.
  ///     Victims of an ACTIVE update event are re-deferred and re-planned on
  ///     surviving paths (counted as a replan; the event completes only once
  ///     replacements install). Background victims and victims of already
  ///     completed events are killed outright.
  ///   * Each install batch runs through the flaky pipeline: attempts fail
  ///     with FlakyInstallModel::failure_probability and retry after
  ///     exponential backoff. Exhausted retries abort the batch — its placed
  ///     flows are rolled back (removed) and re-deferred for replanning.
  fault::FaultConfig faults;
  /// Overload guard & runtime invariant auditor (event-level Run only).
  /// Disabled by default; enabling it never perturbs the RNG streams of a
  /// fixed-seed run (the guard draws nothing from any Rng).
  ///
  /// Semantics when enabled:
  ///   * Overload control: the update queue is bounded; an arrival at a
  ///     full queue triggers the configured shed policy (reject-new /
  ///     shed-oldest / shed-costliest). Shed events terminate with status
  ///     kShed (kAborted if they had already executed once) and are
  ///     reported, never silently dropped.
  ///   * Deadlines & watchdog: each execution attempt gets a soft deadline
  ///     (base + per-flow budget). Overrunning it aborts the attempt — all
  ///     of the event's placements are rolled back, freeing capacity — and
  ///     requeues the event after an escalating backoff. After
  ///     max_failures misses the event is poison and moves to quarantine
  ///     (terminal status kQuarantined) instead of livelocking the rounds.
  ///   * Auditor: every `cadence` occurrences (and after every fault) the
  ///     run's state is re-audited from first principles — capacity
  ///     conservation, flow/path coherence, queue/quarantine accounting.
  ///     kFailFast throws guard::AuditFailure; kLogAndCount counts into
  ///     metrics::GuardStats.
  guard::GuardConfig guard;
  /// Crash-consistent checkpointing (event-level Run only). Disabled by
  /// default; a disabled config touches no files, draws nothing from any
  /// Rng, and leaves fixed-seed runs bit-identical to a build without the
  /// subsystem. When enabled, a snapshot of the full controller state is
  /// written before the first round and every `cadence` rounds thereafter,
  /// and every committed operation between snapshots is journaled (see
  /// docs/model.md §11). Run throws fault::ControllerCrash when
  /// SimConfig::faults.crash fires; Resume restores the newest loadable
  /// snapshot, replay-verifies the journal, and finishes the run.
  ckpt::CheckpointConfig checkpoint;
  /// Online-serving mode (event-level Run only). Disabled by default; a
  /// disabled config keeps no serve state, draws nothing from any Rng, and
  /// adds no serve section to snapshots, so fixed-seed runs are
  /// bit-identical to a build without the subsystem. When enabled:
  ///   * Admission: arrivals pass the serve gates (Shedding-state priority
  ///     floor, deadline-aware rejection, per-tenant token buckets) BEFORE
  ///     the overload guard's bounded queue; rejected events terminate
  ///     kShed and are counted per tenant and reason.
  ///   * Health: a brownout controller tracks queue depth, the sliding
  ///     deadline-miss rate, and fabric stress; its degradation level is
  ///     exposed to the scheduler (SchedulingContext::DegradationLevel),
  ///     suppresses optional cadence audits at level >= 2, and sheds
  ///     low-priority tenants at level 3.
  ///   * Telemetry: ECT percentiles via a deterministic streaming sketch,
  ///     per-tenant ledgers + Jain's indexes, and a periodic/transition
  ///     timeseries — all folded into SimResult and into snapshots
  ///     (payload format v4).
  serve::ServeOptions serve;
  /// Anti-entropy reconciliation of grey dataplane failures (event-level
  /// Run only; docs/model.md §16). Disabled by default; a disabled
  /// reconciler keeps no state, draws nothing from any Rng, and adds no
  /// snapshot section, so fixed-seed runs are bit-identical to a build
  /// without the subsystem. When enabled (usually together with
  /// SimConfig::faults.grey):
  ///   * Every `recon.period` virtual seconds a read-back pass diffs the
  ///     controller's intended rules against each switch's applied state,
  ///     classifies the drift (ack-lie / straggler / silent loss), and
  ///     repairs it by re-issuing rules through the same grey pipeline
  ///     under a per-switch retry/backoff budget.
  ///   * A per-switch health EWMA escalates persistent liars: Suspect ->
  ///     Degraded (paths through the switch leave candidate selection) ->
  ///     Quarantined (drained like a switch-down fault, latched).
  ///   * The auditor (when on) enforces the drift invariant: no switch may
  ///     stay continuously at drift past recon.max_passes_at_drift passes
  ///     without being quarantined.
  recon::ReconcilerConfig recon;
};

struct RoundLogEntry {
  Seconds decision_time = 0.0;
  Seconds plan_time = 0.0;
  std::vector<EventId> executed;
};

struct SimResult {
  metrics::Report report;
  std::vector<metrics::EventRecord> records;
  std::size_t rounds = 0;
  std::size_t cost_probes = 0;
  std::size_t cofeasibility_probes = 0;
  /// Flows force-placed to break a capacity deadlock (should be 0 in sane
  /// configurations; reported to make violations visible).
  std::size_t forced_placements = 0;
  std::vector<RoundLogEntry> round_log;
  /// Fault-and-recovery counters (all zero when SimConfig::faults is
  /// disabled); also folded into `report`.
  metrics::FaultStats fault_stats;
  /// Overload-guard and auditor counters (all zero when SimConfig::guard is
  /// disabled); also folded into `report`. Per-event terminal statuses
  /// (completed | shed | aborted | quarantined) live in `records`.
  metrics::GuardStats guard_stats;
  /// Probe counters; also folded into `report`.
  metrics::ProbeStats probe_stats;
  /// Sharded-engine counters (enabled == false unless SimConfig::shards
  /// >= 2). The fan-out count is deterministic across thread counts; the
  /// fan-out wall time is a host measurement. Neither is part of `report`,
  /// any CSV or the snapshot.
  metrics::ShardStats shard_stats;
  /// What this process did to recover (all zero unless Resume ran); the
  /// per-process subset is also folded into `report` (ckpt_recoveries,
  /// ckpt_wal_replayed, ckpt_recovery_wall_seconds).
  ckpt::RecoveryInfo recovery;
  /// Every auditor violation recorded during the run (empty unless
  /// SimConfig::guard.auditor is enabled in log-and-count mode). Each record
  /// carries the scheduling round and topology epoch of the pass that found
  /// it — the chaos campaign's primary oracle.
  std::vector<guard::AuditViolation> violations;
  /// Serve-mode outcome (enabled == false unless SimConfig::serve is on).
  serve::ServeSummary serve;
  /// Serve-mode timeseries (periodic samples + brownout transitions) and
  /// per-tenant report, as CSV text; empty unless serve mode is on.
  std::string serve_timeseries_csv;
  std::string serve_tenant_csv;
  /// Grey-failure / reconciliation counters (all zero unless
  /// SimConfig::faults.grey or SimConfig::recon is on); the headline
  /// subset is also folded into `report` (drift_*, grey_*, switches_*).
  recon::ReconStats recon_stats;
};

class Simulator {
 public:
  /// Builds a fresh traffic generator for churn replacement draws; invoked
  /// once per Run with a deterministic seed so compared runs see the same
  /// stochastic process.
  using ChurnFactory =
      std::function<std::unique_ptr<trace::TrafficGenerator>(std::uint64_t)>;

  /// `initial` is the pre-update network state (background traffic placed);
  /// each Run starts from a fresh copy so runs are directly comparable.
  Simulator(const net::Network& initial, const topo::PathProvider& paths,
            SimConfig config = {});

  /// Required before Run when config.churn.enabled.
  void SetChurnFactory(ChurnFactory factory) {
    churn_factory_ = std::move(factory);
  }

  /// Event-level run under `scheduler`. With config.checkpoint enabled and
  /// config.faults.crash armed, throws fault::ControllerCrash at the
  /// injected crash point (committed snapshots/journal stay on disk).
  [[nodiscard]] SimResult Run(sched::Scheduler& scheduler,
                              std::span<const update::UpdateEvent> events);

  /// Recovers a crashed event-level run from config.checkpoint.dir: restores
  /// the newest loadable snapshot (falling back past corrupt ones), replays
  /// the journal as a determinism cross-check while re-executing, and runs
  /// to completion. Must be called with the same config and events as the
  /// crashed Run; crash injection points are ignored (one-shot per process).
  /// Throws RecoveryError when no snapshot loads or re-execution diverges
  /// from the journal.
  [[nodiscard]] SimResult Resume(sched::Scheduler& scheduler,
                                 std::span<const update::UpdateEvent> events);

  /// Flow-level baseline run.
  [[nodiscard]] SimResult RunFlowLevel(
      std::span<const update::UpdateEvent> events);

  [[nodiscard]] const SimConfig& config() const { return config_; }

 private:
  const net::Network& initial_;
  const topo::PathProvider& paths_;
  SimConfig config_;
  ChurnFactory churn_factory_;
};

}  // namespace nu::sim
