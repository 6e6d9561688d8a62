// The event loop's optional subsystems, each a plain class that owns its
// state and that the loop calls directly: checkpoint bookkeeping,
// background churn (shared with the flow-level baseline; owns its snapshot
// section), and grey-failure reconciliation (likewise). There is no common
// base class or hook list: the loop knows every subsystem by name.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/journal.h"
#include "ckpt/snapshot.h"
#include "common/rng_streams.h"
#include "sim/event_queue.h"
#include "sim/run_state.h"
#include "sim/simulator.h"

namespace nu::sim {

/// Checkpoint bookkeeping (docs/model.md §11): the journal writer, the
/// journal records a restored run has left to verify, the current segment,
/// and the byte and wall-time totals. A disabled config touches no files.
/// The journal is a determinism cross-check, not a redo log: a resumed run
/// re-executes from the restored snapshot and verifies each regenerated
/// operation bitwise against the journal.
class Checkpointer {
 public:
  using SaveFn = std::function<void(BinWriter&)>;
  using LoadFn = std::function<void(BinReader&)>;

  Checkpointer(const ckpt::CheckpointConfig& config, bool resume,
               metrics::Collector& collector, ckpt::RecoveryInfo& recovery)
      : config_(config), collector_(collector), recovery_(recovery) {
    if (resume && !config.enabled()) {
      throw RecoveryError("Resume requires a checkpoint directory");
    }
    if (config.enabled()) NU_CHECK(config.cadence >= 1);
  }

  /// Writes snapshot 0 for a fresh run, or restores the newest loadable
  /// snapshot for a resumed one.
  void Start(bool resume, const SaveFn& save, const LoadFn& load) {
    if (!config_.enabled()) return;
    if (resume) return Recover(load);
    // Snapshot 0 precedes the first commit (arrivals are committed before
    // the first round), so every journal segment is fully covered by the
    // snapshot that opened it.
    std::filesystem::create_directories(config_.dir);
    TakeSnapshot(0, save);
  }

  /// Journals one committed operation. During recovery the regenerated
  /// record is verified bitwise against the journal instead of appended;
  /// when the journal runs out, the same segment switches to live appends
  /// at its valid-prefix length (dropping any torn tail for good).
  void Commit(ckpt::WalOp op, std::uint64_t subject, double value) {
    if (!config_.enabled()) return;
    const ckpt::WalRecord rec{op, subject, value};
    if (replay_pos_ < replay_.size()) {
      const ckpt::WalRecord& expect = replay_[replay_pos_];
      if (!rec.BitwiseEquals(expect)) {
        throw RecoveryError(
            "replay divergence at record " + std::to_string(replay_pos_) +
            ": journal has " + expect.DebugString() +
            ", re-execution produced " + rec.DebugString());
      }
      ++replay_pos_;
      ++recovery_.wal_records_replayed;
      collector_.OnWalRecord();
      if (replay_pos_ == replay_.size()) {
        wal_.Open(ckpt::JournalPath(config_.dir, wal_round_), wal_keep_bytes_);
      }
      return;
    }
    collector_.OnWalRecord();
    wal_.Append(rec);
  }

  /// Round-entry hook: true at every cadence point, where it also writes a
  /// snapshot unless the restored one sits exactly there.
  bool AtRoundEntry(std::uint64_t round, const SaveFn& save) {
    if (!config_.enabled() || round == 0 || round % config_.cadence != 0) {
      return false;
    }
    if (skip_snapshot_once_) {
      skip_snapshot_once_ = false;
    } else {
      TakeSnapshot(round, save);
    }
    return true;
  }

  /// Leaves a deliberately torn record behind (mid-round crash injection).
  void AppendTorn(const ckpt::WalRecord& record) {
    if (config_.enabled() && wal_.is_open()) wal_.AppendTorn(record);
  }

  /// Closes the journal and folds what this process did into `rep`.
  void Finish(metrics::Report& rep) {
    // A finished run that still holds unverified journal records
    // re-executed FEWER operations than the crashed run committed —
    // divergence.
    if (replay_pos_ < replay_.size()) {
      throw RecoveryError("run finished with " +
                          std::to_string(replay_.size() - replay_pos_) +
                          " journal records left unverified; next is " +
                          replay_[replay_pos_].DebugString());
    }
    wal_.Close();
    rep.ckpt_recoveries = recovery_.recovered ? 1 : 0;
    rep.ckpt_wal_replayed =
        static_cast<std::size_t>(recovery_.wal_records_replayed);
    rep.ckpt_snapshot_bytes = static_cast<double>(bytes_written_);
    rep.ckpt_snapshot_wall_seconds = wall_seconds_;
    rep.ckpt_recovery_wall_seconds = recovery_.recovery_wall_seconds;
  }

 private:
  /// Writes the snapshot for `round` and rotates the journal. The snapshot
  /// counter is bumped BEFORE serialization so the payload includes its own
  /// count — a restored run then reports the same total as an uninterrupted
  /// one without re-counting.
  void TakeSnapshot(std::uint64_t round, const SaveFn& save) {
    NU_CHECK(replay_pos_ == replay_.size());  // segments end at rotations
    const auto start = WallClock::now();
    collector_.OnSnapshotTaken();
    BinWriter w;
    save(w);
    wal_.Close();
    bytes_written_ += ckpt::WriteSnapshotFile(
        ckpt::SnapshotPath(config_.dir, round), w.buffer());
    wal_round_ = round;
    wal_keep_bytes_ = 0;
    wal_.Open(ckpt::JournalPath(config_.dir, wal_round_), 0);
    wall_seconds_ += SecondsSince(start);
  }

  /// Restores the newest loadable snapshot (falling back past corrupt ones)
  /// and loads its journal segment for replay verification.
  void Recover(const LoadFn& load) {
    const auto recovery_start = WallClock::now();
    const std::vector<std::uint64_t> snapshot_rounds =
        ckpt::ListSnapshotRounds(config_.dir);
    bool restored = false;
    for (const std::uint64_t snap_round : snapshot_rounds) {  // newest first
      const std::filesystem::path snap_path =
          ckpt::SnapshotPath(config_.dir, snap_round);
      try {
        const std::string payload = ckpt::ReadSnapshotFile(snap_path);
        BinReader r(payload);
        load(r);
        r.ExpectEnd();
      } catch (const ckpt::SnapshotCorruption&) {
        ++recovery_.snapshots_skipped;
        continue;
      } catch (const CorruptInput&) {
        ++recovery_.snapshots_skipped;
        continue;
      }
      // Journal corruption is NOT a fallback case: an older snapshot would
      // silently skip the verification the journal exists to provide, so
      // JournalCorruption propagates to the caller.
      const ckpt::JournalContents contents =
          ckpt::ReadJournal(ckpt::JournalPath(config_.dir, snap_round));
      replay_ = contents.records;
      replay_pos_ = 0;
      wal_round_ = snap_round;
      wal_keep_bytes_ = contents.valid_bytes;
      skip_snapshot_once_ = snap_round > 0;
      recovery_.recovered = true;
      recovery_.snapshot_round = snap_round;
      recovery_.snapshot_bytes = std::filesystem::file_size(snap_path);
      recovery_.torn_bytes_truncated = contents.torn_bytes;
      restored = true;
      break;
    }
    if (!restored) {
      throw RecoveryError("no loadable snapshot in " + config_.dir + " (" +
                          std::to_string(snapshot_rounds.size()) +
                          " candidates)");
    }
    if (replay_.empty()) {
      // Nothing to verify (crash happened right after a snapshot): open the
      // segment for live appends immediately.
      wal_.Open(ckpt::JournalPath(config_.dir, wal_round_), wal_keep_bytes_);
    }
    recovery_.recovery_wall_seconds = SecondsSince(recovery_start);
  }

  const ckpt::CheckpointConfig& config_;
  metrics::Collector& collector_;
  ckpt::RecoveryInfo& recovery_;
  ckpt::JournalWriter wal_;
  std::vector<ckpt::WalRecord> replay_;  // journal records left to verify
  std::size_t replay_pos_ = 0;
  std::uint64_t wal_round_ = 0;       // round key of the current segment
  std::uint64_t wal_keep_bytes_ = 0;  // valid prefix of the replayed segment
  // Set when the restored snapshot sits exactly at a cadence point, so the
  // re-entered hook must not write (or count) a duplicate snapshot.
  bool skip_snapshot_once_ = false;
  std::uint64_t bytes_written_ = 0;
  double wall_seconds_ = 0.0;
};

/// Background churn: existing background flows end after a residual
/// lifetime (stationarity: uniform fraction of the full duration) and are
/// replaced with fresh draws at departure time.
class ChurnProcess {
 public:
  ChurnProcess(const SimConfig& config, const Simulator::ChurnFactory& factory,
               const topo::Graph& graph)
      : config_(config.churn),
        factory_(factory),
        generator_seed_(StreamSeed(config.seed, RngStream::kChurnGenerator)),
        timer_rng_(StreamSeed(config.seed, RngStream::kChurnTimers)),
        reserve_(trace::HeadroomReserve(graph, config.churn.placement)) {}

  /// Builds the generator and calls push(end_time, flow) for every
  /// background flow of `network`. No-op when churn is off.
  template <typename Push>
  void Start(const net::Network& network, Push&& push) {
    if (!config_.enabled) return;
    NU_CHECK(factory_ != nullptr);
    generator_ = factory_(generator_seed_);
    for (FlowId fid : network.PlacedFlows()) {
      const flow::Flow& f = network.FlowOf(fid);
      if (f.origin != flow::FlowOrigin::kBackground) continue;
      push(timer_rng_.Uniform01() * f.duration, fid);
    }
  }

  /// One replacement draw (up to replacement_attempts tries): places a
  /// fresh background flow and returns it, or nullopt when none fit.
  std::optional<FlowId> SpawnReplacement(net::MutableNetwork& network,
                                         const topo::PathProvider& provider) {
    for (std::size_t attempt = 0; attempt < config_.replacement_attempts;
         ++attempt) {
      const trace::FlowSpec spec = generator_->Next();
      ++draws_;  // replayed to restore the generator from a snapshot
      const topo::Path* path = trace::FindRandomPathWithHeadroom(
          network, provider, spec.src, spec.dst, spec.demand, reserve_,
          timer_rng_);
      if (path == nullptr) continue;
      flow::Flow f;
      f.src = spec.src;
      f.dst = spec.dst;
      f.demand = spec.demand;
      f.duration = spec.duration;
      f.origin = flow::FlowOrigin::kBackground;
      return network.Place(std::move(f), *path);
    }
    return std::nullopt;
  }

  void Save(BinWriter& w) const {
    SaveRngState(w, timer_rng_.GetState());
    w.U64(draws_);
  }

  /// The generator's stream position is restored by replaying its draw
  /// count against a freshly seeded instance.
  void Load(BinReader& r) {
    timer_rng_.SetState(LoadRngState(r));
    draws_ = r.U64();
    if (!config_.enabled) return;
    generator_ = factory_(generator_seed_);
    for (std::uint64_t i = 0; i < draws_; ++i) (void)generator_->Next();
  }

 private:
  const ChurnConfig& config_;
  const Simulator::ChurnFactory& factory_;
  const std::uint64_t generator_seed_;
  std::unique_ptr<trace::TrafficGenerator> generator_;
  Rng timer_rng_;
  const std::vector<Mbps> reserve_;
  std::uint64_t draws_ = 0;  // TrafficGenerator::Next calls so far
};

/// Grey-failure / reconciliation wiring (docs/model.md §16). The grey
/// model makes installed rules lie (acked-but-absent), straggle, or get
/// silently evicted; the reconciler is the periodic read-back pass that
/// detects and repairs the resulting intended-vs-applied drift. Both off
/// by default: a disabled dataplane model holds no divergence, draws
/// nothing, and adds no snapshot section, so fixed-seed runs are
/// bit-identical to a build without the subsystem. One RNG stream covers
/// injection AND repair, so reconciliation is a single deterministic draw
/// sequence.
class ReconRuntime {
 public:
  ReconRuntime(const SimConfig& config, TimelineQueue<Occurrence>& timeline)
      : config_(config),
        on_(config.faults.grey.enabled() || config.recon.enabled),
        timeline_(timeline),
        reconciler_(config.recon),
        grey_rng_(StreamSeed(config.seed, RngStream::kGreyFailures)) {
    if (config.faults.grey.enabled()) config.faults.grey.Validate();
  }

  /// The dataplane model is on (grey failures or the reconciler).
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] bool reconciling() const { return config_.recon.enabled; }
  [[nodiscard]] const recon::Reconciler& reconciler() const {
    return reconciler_;
  }
  /// Recon entries in the timeline (the armed tick, pending grey
  /// applies/evictions). They never free capacity.
  [[nodiscard]] std::size_t timeline_entries() const {
    return pending_grey_ + (armed_ ? 1 : 0);
  }
  /// No divergence left to repair and no grey occurrence in flight.
  [[nodiscard]] bool Quiet() const {
    return dataplane_.active_count() == 0 && pending_grey_ == 0;
  }

  void DropFlow(FlowId flow) {
    if (on_) dataplane_.DropFlow(flow);
  }

  /// Issues the dataplane rules of freshly installed event flows: one rule
  /// per switch on the flow's path, each drawn through the grey model. An
  /// ack-lie or straggler leaves the rule divergent (intended but not
  /// applied); a rule loss applies now and schedules the silent eviction.
  /// Background flows and migration reroutes of already-verified flows are
  /// modeled as reliable — the grey model targets the install pipeline of
  /// update events, where drift gates correctness.
  void IssueRules(const net::Network& network, std::span<const FlowId> flows,
                  Seconds t, bool lossy) {
    if (!on_) return;
    recon::ReconStats& rs = reconciler_.stats();
    for (const FlowId fid : flows) {
      if (lossy && !network.HasFlow(fid)) continue;  // killed mid-install
      const topo::Path& path = network.PathOf(fid);
      for (const NodeId node : path.nodes) {
        if (network.graph().node(node).role == topo::NodeRole::kHost) {
          continue;
        }
        ++rs.rules_issued;
        const fault::GreyOutcome out =
            fault::SampleGrey(config_.faults.grey, node, t, grey_rng_);
        switch (out.kind) {
          case fault::GreyOutcome::Kind::kApplied:
            ++rs.rules_verified;
            break;
          case fault::GreyOutcome::Kind::kAckLie:
            dataplane_.AddDivergence(node, fid, net::RuleFault::kAckLie, t);
            ++rs.ack_lies;
            Arm(t);
            break;
          case fault::GreyOutcome::Kind::kStraggler:
            dataplane_.AddDivergence(node, fid, net::RuleFault::kStraggler,
                                     t);
            dataplane_.SetPendingApply(node, fid, true);
            PushGrey(Occurrence::Kind::kGreyApply, node, fid, t + out.delay);
            ++rs.stragglers;
            Arm(t);
            break;
          case fault::GreyOutcome::Kind::kRuleLoss:
            ++rs.rules_verified;  // applied now, evicted later
            PushGrey(Occurrence::Kind::kRuleLoss, node, fid, t + out.delay);
            break;
        }
      }
    }
  }

  /// Arms the next anti-entropy tick. At most one kReconcile occurrence is
  /// ever in flight; passes re-arm themselves while drift or in-flight
  /// grey applies remain, so the tick dies out with the work.
  void Arm(Seconds t) {
    if (!config_.recon.enabled || armed_) return;
    armed_ = true;
    timeline_.Push(t + config_.recon.period,
                   Occurrence{Occurrence::Kind::kReconcile, FlowId::invalid(),
                              EventId::invalid(), 0, {}});
  }

  /// kGreyApply: a straggling (or repair-re-issued) rule finally lands.
  /// Stale if the flow departed or the divergence was pruned meanwhile.
  void GreyApply(const Occurrence& occ, Seconds t) {
    NU_CHECK(pending_grey_ > 0);
    --pending_grey_;
    const NodeId node{static_cast<NodeId::rep_type>(occ.fault_index)};
    if (const net::DivergentRule* rule = dataplane_.Find(node, occ.flow)) {
      recon::ReconStats& rs = reconciler_.stats();
      ++rs.rules_verified;
      if (rule->detected) {
        // The reconciler had seen this drift, so the landing closes a
        // repair and counts toward recovery latency.
        ++rs.repairs_succeeded;
        rs.repair_latency.Add(t - rule->since);
      }
      dataplane_.Resolve(node, occ.flow);
    }
  }

  /// kRuleLoss: a switch silently evicts a rule it had applied. Only
  /// meaningful while the flow still routes through the (alive) switch and
  /// the rule is not already divergent for another reason.
  void RuleLoss(const net::Network& network, const Occurrence& occ,
                Seconds t) {
    NU_CHECK(pending_grey_ > 0);
    --pending_grey_;
    const NodeId node{static_cast<NodeId::rep_type>(occ.fault_index)};
    if (network.HasFlow(occ.flow) && network.NodeUp(node) &&
        !dataplane_.IsDivergent(node, occ.flow)) {
      const topo::Path& path = network.PathOf(occ.flow);
      if (std::find(path.nodes.begin(), path.nodes.end(), node) !=
          path.nodes.end()) {
        dataplane_.AddDivergence(node, occ.flow, net::RuleFault::kRuleLoss,
                                 t);
        ++reconciler_.stats().rules_lost;
        Arm(t);
      }
    }
  }

  /// One anti-entropy pass (kReconcile): prune stale divergence, read back
  /// every drifting switch, repair through the grey pipeline, fold switch
  /// health. Returns the switches newly quarantined, their divergence
  /// already dropped (residual on a quarantined switch is excused by the
  /// explicit quarantine); the loop drains each like a switch-down fault.
  std::vector<NodeId> Pass(const net::Network& network, Seconds t) {
    NU_CHECK(armed_);
    armed_ = false;
    recon::Reconciler::Prune(network, dataplane_);
    const recon::PassResult pass =
        reconciler_.Pass(recon::Reconciler::CollectDrift(dataplane_),
                         dataplane_, config_.faults.grey, t, grey_rng_);
    for (const recon::DeferredGrey& d : pass.deferred) {
      PushGrey(d.kind == recon::DeferredGrey::Kind::kApply
                   ? Occurrence::Kind::kGreyApply
                   : Occurrence::Kind::kRuleLoss,
               d.node, d.flow, d.time);
    }
    for (const NodeId node : pass.quarantine) dataplane_.DropNode(node);
    return pass.quarantine;
  }

  /// Re-arms after a pass while anything still needs reconciling: a live
  /// run (rules are still being issued), unresolved repairable drift, or
  /// in-flight grey applies/evictions.
  void Rearm(Seconds t, bool run_live) {
    if (run_live || dataplane_.active_count() > 0 || pending_grey_ > 0) {
      Arm(t);
    }
  }

  /// Recounts the armed tick and the pending grey entries from a restored
  /// timeline: neither is serialized.
  void Recount(std::span<const TimelineQueue<Occurrence>::Entry> entries) {
    pending_grey_ = 0;
    armed_ = false;
    for (const auto& entry : entries) {
      const Occurrence::Kind kind = entry.payload.kind;
      if (kind == Occurrence::Kind::kGreyApply ||
          kind == Occurrence::Kind::kRuleLoss) {
        ++pending_grey_;
      }
      if (kind == Occurrence::Kind::kReconcile) {
        if (armed_) throw CorruptInput("duplicate reconcile tick");
        armed_ = true;
      }
    }
  }

  void Save(BinWriter& w) const {
    dataplane_.SaveState(w);
    reconciler_.SaveState(w);
    SaveRngState(w, grey_rng_.GetState());
  }

  void Load(BinReader& r) {
    dataplane_.LoadState(r);
    reconciler_.LoadState(r);
    grey_rng_.SetState(LoadRngState(r));
  }

  /// Folds the recon counters into the result and its report.
  void Finish(SimResult& result) {
    if (!on_) return;
    recon::ReconStats& rs = reconciler_.stats();
    rs.residual_divergence = dataplane_.total_count();
    result.recon_stats = rs;
    metrics::Report& rep = result.report;
    rep.drift_checks = rs.passes;
    rep.drift_rules_detected = rs.drift_detected;
    rep.grey_ack_lies = rs.ack_lies;
    rep.grey_stragglers = rs.stragglers;
    rep.grey_rules_lost = rs.rules_lost;
    rep.drift_repairs = rs.repairs_succeeded;
    rep.drift_repair_failures = rs.repair_failures;
    rep.drift_rules_abandoned = rs.rules_abandoned;
    rep.switches_degraded = rs.switches_degraded;
    rep.switches_quarantined = rs.switches_quarantined;
    rep.drift_residual_rules = rs.residual_divergence;
    rep.drift_repair_mean = rs.repair_latency.mean();
    rep.drift_repair_p99 = rs.repair_latency.Percentile(0.99);
  }

 private:
  /// Schedules a deferred grey occurrence (straggler apply / rule loss);
  /// the target switch rides in fault_index.
  void PushGrey(Occurrence::Kind kind, NodeId node, FlowId flow, Seconds t) {
    ++pending_grey_;
    timeline_.Push(t, Occurrence{kind, flow, EventId::invalid(),
                                 static_cast<std::size_t>(node.value()), {}});
  }

  const SimConfig& config_;
  const bool on_;
  TimelineQueue<Occurrence>& timeline_;
  net::DataplaneState dataplane_;
  recon::Reconciler reconciler_;
  Rng grey_rng_;
  /// kGreyApply/kRuleLoss entries currently in the timeline, and whether a
  /// kReconcile tick is armed.
  std::size_t pending_grey_ = 0;
  bool armed_ = false;
};

}  // namespace nu::sim
