// The event-level loop behind Simulator::Run and Resume (docs/model.md §2).
// One EventLoop per run: its constructor wires the run (and writes snapshot
// 0 or restores a snapshot); Run() alternates scheduling rounds with drains
// of the occurrence timeline, one handler per Occurrence::Kind.
#include <algorithm>
#include <limits>
#include <map>
#include <unordered_set>

#include "fault/cascade.h"
#include "fault/injector.h"
#include "net/admission.h"
#include "net/overlay.h"
#include "sim/shard_runtime.h"
#include "sim/subsystems.h"
#include "update/cost_estimate.h"

namespace nu::sim {
namespace {

/// One event's cached probe result, valid while the network's state epoch
/// is unchanged since the probe.
struct ProbeCacheEntry {
  std::uint64_t epoch = 0;
  Mbps cost = 0.0;
  /// Full probes cache the plan for execute-time replay; quick probes cache
  /// the cost only.
  bool has_plan = false;
  update::EventPlan plan;
};

/// Probe wiring shared by the rounds of one run.
struct ProbeRuntime {
  /// Epoch-keyed cost/plan caching (SimConfig::probe_cost_cache).
  bool cache_enabled = true;
  std::unordered_map<EventId::rep_type, ProbeCacheEntry> cache;
};

/// SchedulingContext implementation for one round: charges probe costs to
/// virtual time and memoizes the scratch state used by incremental
/// co-feasibility checks (docs/model.md §9). Every what-if plan runs on a
/// copy-on-write overlay over the frozen round network; batch probes fan
/// out across the pod-sharded engine (§15) when it is on. Cache hits skip
/// only the planning work — modeled plan time, probe counters, and
/// probed-marking are identical either way, so decisions and golden metrics
/// cannot drift.
class RoundContext final : public sched::SchedulingContext {
 public:
  RoundContext(const net::Network& network, const update::EventPlanner& planner,
               const SimConfig& config,
               std::span<const sched::QueuedEvent> queue, Rng& rng,
               sched::QueuePressure pressure, ProbeRuntime& probe_rt,
               metrics::ProbeStats& stats, int degradation_level,
               ShardRuntime* shard_rt)
      : network_(network),
        planner_(planner),
        config_(config),
        queue_(queue),
        rng_(rng),
        probed_bits_(queue.size(), 0),
        pressure_(pressure),
        probe_rt_(probe_rt),
        stats_(stats),
        degradation_level_(degradation_level),
        shard_rt_(shard_rt) {}

  [[nodiscard]] std::span<const sched::QueuedEvent> Queue() const override {
    return queue_;
  }

  [[nodiscard]] sched::QueuePressure Pressure() const override {
    return pressure_;
  }

  [[nodiscard]] int DegradationLevel() const override {
    return degradation_level_;
  }

  Mbps ProbeCost(std::size_t index) override {
    NU_EXPECTS(index < queue_.size());
    if (!config_.quick_cost_probes) {
      Mbps cost = 0.0;
      ProbeCosts(std::span<const std::size_t>(&index, 1),
                 std::span<Mbps>(&cost, 1));
      return cost;
    }
    // Estimate-based probe: much cheaper, and the winner is NOT marked
    // probed — execution still pays for (and computes) the full plan.
    const update::UpdateEvent& event = *queue_[index].event;
    ++cost_probes_;
    plan_time_ += config_.cost_model.quick_probe_factor *
                  config_.cost_model.ProbeTime(event.flow_count());
    if (const ProbeCacheEntry* entry = CacheLookup(event.id())) {
      ++stats_.probe_cache_hits;
      return entry->cost;
    }
    const Mbps score =
        update::QuickCostScore(network_, planner_.paths(), event);
    CacheStore(event.id(), score, nullptr);
    return score;
  }

  /// The one full-probe path (docs/model.md §9, §15); `indices` are
  /// distinct queue positions. Cache hits resolve first, then the misses
  /// are planned against the frozen round network — inline, or as one pool
  /// task per home shard when the sharded engine is on and at least two
  /// misses wait. Every counter, plan-time charge and cache store follows
  /// in candidate order, so the result and all accounting equal sequential
  /// probes at any thread count.
  void ProbeCosts(std::span<const std::size_t> indices,
                  std::span<Mbps> out) override {
    NU_EXPECTS(out.size() >= indices.size());
    if (config_.quick_cost_probes) {
      sched::SchedulingContext::ProbeCosts(indices, out);
      return;
    }
    std::vector<char> hit(indices.size(), 0);
    std::vector<const update::UpdateEvent*> missed;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      NU_EXPECTS(indices[i] < queue_.size());
      const update::UpdateEvent* event = queue_[indices[i]].event;
      if (const ProbeCacheEntry* entry = CacheLookup(event->id())) {
        hit[i] = 1;
        out[i] = entry->cost;
      } else {
        missed.push_back(event);
      }
    }

    std::vector<update::EventPlan> plans(missed.size());
    const auto plan = [this, &missed, &plans](std::size_t j) {
      plans[j] = planner_.Plan(network_, *missed[j]);
    };
    if (shard_rt_ != nullptr && missed.size() >= 2) {
      shard_rt_->FanOut(missed, plan);
    } else {
      for (std::size_t j = 0; j < missed.size(); ++j) plan(j);
    }

    std::size_t j = 0;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const update::UpdateEvent& event = *queue_[indices[i]].event;
      ++cost_probes_;
      plan_time_ += config_.cost_model.ProbeTime(event.flow_count());
      probed_bits_[indices[i]] = 1;
      if (hit[i] != 0) {
        ++stats_.probe_cache_hits;
        continue;
      }
      out[i] = ProbedCost(plans[j], event);
      CacheStore(event.id(), out[i], &plans[j]);
      ++j;
    }
  }

  bool ProbeCoFeasible(std::span<const std::size_t> selected,
                       std::size_t index) override {
    NU_EXPECTS(index < queue_.size());
    const update::UpdateEvent& event = *queue_[index].event;
    plan_time_ += config_.cost_model.CoFeasibilityTime(event.flow_count());
    ++cofeasibility_probes_;
    probed_bits_[index] = 1;

    net::NetworkOverlay& scratch = EnsureScratch(selected);
    const update::EventPlan plan = planner_.Plan(scratch, event);
    if (!plan.fully_feasible) return false;
    // Near-free wins only: co-scheduling should not buy parallelism with
    // migration cost that waiting (and churn) might avoid.
    if (plan.migrated_traffic > config_.plmtf_co_migration_allowance) {
      return false;
    }
    // "Together" means without disturbing the events selected this round:
    // the plan may shuffle background flows and still-transmitting flows of
    // past rounds, but must not migrate flows the current round is placing.
    for (const update::FlowAction& action : plan.actions) {
      for (const update::MigrationMove& move : action.migration.moves) {
        // Ids absent from the scratch state were placed by the probed
        // event itself inside the plan's private view — migrating one's own
        // earlier flows is fine.
        if (!scratch.HasFlow(move.flow)) continue;
        const EventId owner = scratch.FlowOf(move.flow).event;
        if (!owner.valid()) continue;  // background
        for (std::size_t s : selected) {
          if (queue_[s].event->id() == owner) return false;
        }
      }
    }
    return true;
  }

  Rng& rng() override { return rng_; }

  [[nodiscard]] Seconds plan_time() const { return plan_time_; }
  [[nodiscard]] std::size_t cost_probes() const { return cost_probes_; }
  [[nodiscard]] std::size_t cofeasibility_probes() const {
    return cofeasibility_probes_;
  }
  [[nodiscard]] bool WasProbed(std::size_t index) const {
    return probed_bits_[index] != 0;
  }

 private:
  /// The probe cost the schedulers compare: migrated traffic, plus a 10x
  /// demand penalty per unplaceable flow — a blocked flow would stall the
  /// whole round, so such events are deprioritized.
  static Mbps ProbedCost(const update::EventPlan& plan,
                         const update::UpdateEvent& event) {
    Mbps cost = plan.migrated_traffic;
    if (!plan.fully_feasible) {
      for (const update::FlowAction& action : plan.actions) {
        if (!action.placeable) {
          cost += 10.0 * event.flows()[action.flow_index].demand;
        }
      }
    }
    return cost;
  }

  [[nodiscard]] ProbeCacheEntry* CacheLookup(EventId id) {
    if (!probe_rt_.cache_enabled) return nullptr;
    const auto it = probe_rt_.cache.find(id.value());
    if (it == probe_rt_.cache.end() ||
        it->second.epoch != network_.state_epoch()) {
      return nullptr;
    }
    return &it->second;
  }

  /// Stores a probe result (counted as a miss). `plan` is consumed when
  /// non-null; quick probes pass nullptr (cost-only entries never replay).
  void CacheStore(EventId id, Mbps cost, update::EventPlan* plan) {
    if (!probe_rt_.cache_enabled) return;
    ++stats_.probe_cache_misses;
    ProbeCacheEntry& entry = probe_rt_.cache[id.value()];
    entry.epoch = network_.state_epoch();
    entry.cost = cost;
    entry.has_plan = plan != nullptr;
    entry.plan = plan != nullptr ? std::move(*plan) : update::EventPlan{};
  }

  /// Lazily maintains an overlay with `selected` events applied. P-LMTF
  /// grows `selected` by appending, so the applied prefix usually stays
  /// valid; any other shape triggers a rebuild.
  net::NetworkOverlay& EnsureScratch(std::span<const std::size_t> selected) {
    const bool prefix_ok =
        scratch_.has_value() && applied_.size() <= selected.size() &&
        std::equal(applied_.begin(), applied_.end(), selected.begin());
    if (!prefix_ok) {
      scratch_.emplace(network_);
      applied_.clear();
    }
    for (std::size_t i = applied_.size(); i < selected.size(); ++i) {
      planner_.Execute(*scratch_, *queue_[selected[i]].event);
      applied_.push_back(selected[i]);
    }
    return *scratch_;
  }

  const net::Network& network_;
  const update::EventPlanner& planner_;
  const SimConfig& config_;
  std::span<const sched::QueuedEvent> queue_;
  Rng& rng_;

  Seconds plan_time_ = 0.0;
  std::size_t cost_probes_ = 0;
  std::size_t cofeasibility_probes_ = 0;
  /// Per-round probed flags, indexed by queue position (replaces the
  /// O(probes) linear scan the WasProbed lookup used to do).
  std::vector<char> probed_bits_;
  std::optional<net::NetworkOverlay> scratch_;
  std::vector<std::size_t> applied_;
  sched::QueuePressure pressure_;
  ProbeRuntime& probe_rt_;
  /// The run's probe counters (owned by the collector).
  metrics::ProbeStats& stats_;
  /// Brownout ladder level the serve runtime pinned for this round (0 when
  /// serve mode is off).
  int degradation_level_ = 0;
  /// Non-null when the pod-sharded engine drives this round's batch probes.
  ShardRuntime* shard_rt_ = nullptr;
};

class EventLoop {
 public:
  EventLoop(const net::Network& initial, const topo::PathProvider& paths,
            const SimConfig& config,
            const Simulator::ChurnFactory& churn_factory,
            sched::Scheduler& scheduler,
            std::span<const update::UpdateEvent> events, const bool resume)
      : config_(config),
        scheduler_(scheduler),
        // Crash injection is one-shot per process: a resumed run ignores
        // the spec, otherwise it would crash at the same round forever.
        crash_(resume ? fault::CrashSpec{} : config.faults.crash),
        network_(initial),
        pending_(SortedByArrival(events)),
        alive_paths_(
            paths,
            [this](const topo::Path& p) {
              if (!network_.PathAlive(p)) return false;
              // Health deprioritization: paths through Degraded (or
              // Quarantined) switches leave candidate selection.
              // Quarantined switches are also down, but degradation alone
              // must already steer planning.
              const recon::SwitchHealthTracker& health =
                  recon_.reconciler().health();
              if (recon_.reconciling() && health.any_unusable()) {
                for (const NodeId node : p.nodes) {
                  if (!health.IsUsable(node)) return false;
                }
              }
              return true;
            },
            [this] {
              return network_.topology_epoch() +
                     recon_.reconciler().health().epoch();
            }),
        // When faults are off the planner sees the raw provider and the
        // injector draws nothing, so a fixed-seed run is bit-identical with
        // and without this machinery.
        provider_(faults_on_ || recon_.reconciling()
                      ? static_cast<const topo::PathProvider&>(alive_paths_)
                      : paths),
        churn_(config, churn_factory, initial.graph()),
        ckpt_(config.checkpoint, resume, collector_, result_.recovery) {
    // Backstop validation: a plan referencing nonexistent ids fails here
    // with a FaultPlanError naming the offending spec, never by misfiring
    // mid-run.
    if (faults_on_) config.faults.plan.Validate(network_.graph());
    for (const update::UpdateEvent* e : pending_) {
      event_by_id_.emplace(e->id().value(), e);
    }
    // The cache persists across rounds but is keyed by the network's state
    // epoch, so any mutation invalidates it wholesale (docs/model.md §9).
    probe_rt_.cache_enabled = config.probe_cost_cache;
    // Pod-sharded engine (docs/model.md §15): the coordinator stays the
    // only thread that mutates simulation state, so the sharded run is
    // bit-identical to the unsharded one at any thread count.
    if (config.shards >= 2) {
      shard_rt_.emplace(network_.graph(), config.shards, config.shard_threads);
    }
    // Serve mode gates admission, tracks health (brownout), and records the
    // SLO timeseries; `serve_rt_.has_value()` IS the enabled check.
    if (config.serve.enabled) serve_rt_.emplace(config.serve);

    // Every scheduled incident enters the timeline up front; the plan is
    // already time-sorted, but the queue orders them anyway.
    if (faults_on_) {
      const std::vector<fault::FaultSpec>& specs = config.faults.plan.specs();
      for (std::size_t i = 0; i < specs.size(); ++i) {
        timeline_.Push(specs[i].time,
                       Occurrence{Occurrence::Kind::kFault, FlowId::invalid(),
                                  EventId::invalid(), i, {}});
      }
    }
    churn_.Start(network_, [this](Seconds t, FlowId fid) {
      timeline_.Push(t, Occurrence{Occurrence::Kind::kBackgroundDeparture,
                                   fid, EventId::invalid(), 0, {}});
    });
    ckpt_.Start(
        resume, [this](BinWriter& w) { SaveState(w); },
        [this](BinReader& r) { LoadState(r); });
  }
  // The path filter and the checkpoint callbacks hold `this`.
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimResult Run() {
    std::size_t loop_guard = 0;
    for (;;) {
      NU_CHECK(++loop_guard < 100'000'000);
      IngestArrivals();
      if (Drained()) break;
      if (active_.empty() && !queue_.empty()) {
        RunRound();
        continue;
      }
      // Recon machinery in the timeline never frees capacity, so it must
      // not stop the deadlock breaker. With the reconciler off this is the
      // empty-timeline check.
      if (next_arrival_ >= pending_.size() &&
          timeline_.size() <= recon_.timeline_entries()) {
        if (BreakDeadlock()) continue;
        // No deferred flows: the drain condition kept us alive for the
        // remaining recon entries — advance time over them. An empty
        // timeline here means the loop cannot make progress.
        NU_CHECK(!timeline_.empty());
      }
      DrainTimeline();
      AfterBatch();
    }
    return Finish();
  }

 private:
  void IngestArrivals() {
    while (next_arrival_ < pending_.size() &&
           pending_[next_arrival_]->arrival_time() <= now_ + kTimeEpsilon) {
      const update::UpdateEvent* e = pending_[next_arrival_++];
      collector_.OnArrival(e->id(), e->arrival_time(), e->flow_count());
      ckpt_.Commit(ckpt::WalOp::kArrival, e->id().value(), e->arrival_time());
      if (serve_rt_.has_value()) {
        // Serve admission gates run BEFORE the overload guard: a rejected
        // arrival never competes for queue space. `now_` can sit
        // kTimeEpsilon below the arrival being ingested, so clamp.
        serve_rt_->OnArrival(*e);
        if (serve_rt_->Admit(*e, std::max(now_, e->arrival_time())) !=
            serve::RejectReason::kNone) {
          Shed(*e);
          continue;
        }
      }
      Admit(e);
    }
  }

  /// Admission control: pushes `e` unless the bounded queue is full, in
  /// which case the configured policy picks a victim — possibly `e` itself
  /// (returns false). A disabled guard admits unconditionally.
  bool Admit(const update::UpdateEvent* e) {
    const guard::OverloadConfig& overload = config_.guard.overload;
    if (overload.enabled() && queue_.size() >= overload.max_queue_length) {
      const std::optional<std::size_t> victim = guard::ChooseShedVictim(
          overload, queue_, *e, network_, provider_);
      if (!victim.has_value()) {
        // Either way the overload guard drops a serve-ADMITTED event (the
        // serve gates already passed it), so the serve ledger counts it as
        // a queue shed, not an admission rejection.
        if (serve_rt_.has_value()) serve_rt_->OnShedQueue(*e);
        Shed(*e);
        return false;
      }
      if (serve_rt_.has_value()) serve_rt_->OnShedQueue(*queue_[*victim]);
      Shed(*queue_[*victim]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*victim));
    }
    queue_.push_back(e);
    collector_.OnQueueDepth(queue_.size());
    return true;
  }

  /// Terminally sheds `e` (admission drop or requeue drop). The collector
  /// distinguishes kShed from kAborted by whether the event ever executed.
  /// `now_` can sit kTimeEpsilon below the arrival being ingested, so clamp.
  void Shed(const update::UpdateEvent& e) {
    const Seconds t = std::max(now_, e.arrival_time());
    collector_.OnShed(e.id(), t);
    ckpt_.Commit(ckpt::WalOp::kShed, e.id().value(), t);
    ++shed_count_;
  }

  /// Every event arrived and reached a terminal state. Parked events still
  /// owe a requeue attempt. (Churn would keep the timeline busy forever, so
  /// do not wait for it to empty.) A run with the reconciler on
  /// additionally drains its dataplane drift: it ends only once every
  /// non-abandoned divergence is repaired and every in-flight grey
  /// apply/eviction has landed — zero unexcused residual, or explicit
  /// abandonment/quarantine.
  [[nodiscard]] bool Drained() const {
    return active_.empty() && queue_.empty() && parked_count_ == 0 &&
           next_arrival_ >= pending_.size() &&
           (!recon_.reconciling() || recon_.Quiet());
  }

  /// One round: decide, then execute the selected events.
  void RunRound() {
    // The probe cache is cleared at EVERY cadence point — also when the
    // snapshot itself is skipped — so a recovered run (which necessarily
    // restarts with a cold cache) sees the same hit/miss sequence as an
    // uninterrupted one. Decisions never depend on the cache.
    if (ckpt_.AtRoundEntry(result_.rounds,
                           [this](BinWriter& w) { SaveState(w); })) {
      probe_rt_.cache.clear();
    }
    if (crash_.armed() && crash_.point == fault::CrashPoint::kBeforeRound &&
        result_.rounds + 1 == crash_.at_round) {
      throw fault::ControllerCrash(crash_.at_round, crash_.point);
    }
    std::vector<sched::QueuedEvent> view;
    view.reserve(queue_.size());
    for (const update::UpdateEvent* e : queue_) {
      view.push_back(sched::QueuedEvent{e});
    }
    RoundContext context(
        network_, planner_, config_, view, rng_,
        sched::QueuePressure{config_.guard.overload.max_queue_length,
                             queue_.size(), shed_count_},
        probe_rt_, collector_.probe_stats(),
        serve_rt_.has_value() ? serve_rt_->DegradationLevel() : 0,
        shard_rt_.has_value() ? &*shard_rt_ : nullptr);
    const sched::Decision decision = scheduler_.Decide(context);
    NU_CHECK(sched::IsValidDecision(decision, queue_.size()));

    total_plan_time_ += context.plan_time();
    result_.cost_probes += context.cost_probes();
    result_.cofeasibility_probes += context.cofeasibility_probes();
    now_ += context.plan_time();

    RoundLogEntry log;
    log.decision_time = now_;
    log.plan_time = context.plan_time();
    for (std::size_t index : decision.selected) {
      ExecuteSelected(*queue_[index], context.WasProbed(index), log);
    }

    // Remove executed events from the queue (descending index).
    std::vector<std::size_t> sorted_selected = decision.selected;
    std::sort(sorted_selected.rbegin(), sorted_selected.rend());
    for (std::size_t index : sorted_selected) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
    }

    ++result_.rounds;
    if (config_.keep_round_log) result_.round_log.push_back(std::move(log));
    // Round boundaries are brownout observation points: plan time moved the
    // clock, and the queue just drained by the round's selection.
    if (serve_rt_.has_value()) {
      serve_rt_->Tick(network_, now_, queue_.size(), active_.size());
    }
  }

  void ExecuteSelected(const update::UpdateEvent& event, bool probed,
                       RoundLogEntry& log) {
    const CostModel& costs = config_.cost_model;
    const EventId id = event.id();
    if (!probed) {
      // FIFO-style execution without a prior probe still pays for computing
      // the event's update plan.
      const Seconds t = costs.ProbeTime(event.flow_count());
      total_plan_time_ += t;
      now_ += t;
    }
    collector_.OnExecutionStart(id, now_);
    ckpt_.Commit(ckpt::WalOp::kExecute, id.value(), now_);
    // A winner probed this round has a cached plan built against the exact
    // current state — replay it instead of re-planning. Place and Reroute
    // re-validate everything, so a stale plan would abort loudly rather
    // than corrupt state.
    update::ExecutionResult exec;
    const auto cached = probe_rt_.cache.find(id.value());
    if (cached != probe_rt_.cache.end() && cached->second.has_plan &&
        cached->second.epoch == network_.state_epoch()) {
      exec = planner_.ExecuteWithPlan(network_, event,
                                      std::move(cached->second.plan));
      cached->second.has_plan = false;
      ++collector_.probe_stats().exec_plan_reuses;
    } else {
      exec = planner_.Execute(network_, event);
    }
    collector_.OnCost(id, exec.plan.migrated_traffic);
    ckpt_.Commit(ckpt::WalOp::kMigration, id.value(),
                 exec.plan.migrated_traffic);

    active_order_.push_back(id);
    const auto [it, inserted] = active_.emplace(id.value(), ActiveEvent{});
    NU_CHECK(inserted);
    ActiveEvent& ae = it->second;
    ae.event = &event;
    if (lossy_) {
      // placed_flows is parallel to the placeable actions, in order.
      std::size_t placed_i = 0;
      for (const update::FlowAction& action : exec.plan.actions) {
        if (!action.placeable) continue;
        ae.flow_index.emplace(exec.placed_flows[placed_i].value(),
                              action.flow_index);
        ++placed_i;
      }
    }
    if (watchdog_on_) {
      // Each execution attempt runs under a fresh generation so the
      // watchdog (and any install occurrences it strands) can tell a
      // re-execution from the attempt it aborted.
      ae.generation = ++activation_count_[id.value()];
      timeline_.Push(
          now_ + config_.guard.deadline.DeadlineFor(event.flow_count()),
          Occurrence{Occurrence::Kind::kWatchdog, FlowId::invalid(), id, 0,
                     {}, ae.generation});
    }
    if (!exec.placed_flows.empty()) {
      ScheduleBatch(ae, id, exec.placed_flows,
                    now_ + costs.MigrationTime(exec.plan.migrated_traffic),
                    costs.InstallTime(exec.placed_flows.size()));
    }
    for (std::size_t deferred_index : exec.deferred_flows) {
      ae.deferred.push_back(deferred_index);
      collector_.OnDeferredFlow(id);
    }
    log.executed.push_back(id);

    if (crash_.armed() && crash_.point == fault::CrashPoint::kMidRound &&
        result_.rounds + 1 == crash_.at_round) {
      // Die after the round's first event committed its journal records,
      // leaving a deliberately torn record behind — the kill -9-mid-write
      // case the journal framing exists for.
      ckpt_.AppendTorn(
          ckpt::WalRecord{ckpt::WalOp::kMigration, id.value(), -1.0});
      throw fault::ControllerCrash(crash_.at_round, crash_.point);
    }
  }

  /// Deferred flows with nothing left to free capacity: break the deadlock
  /// by force-placing them (reported, not hidden). True when it placed any.
  bool BreakDeadlock() {
    bool any_deferred = false;
    for (EventId id : active_order_) {
      ActiveEvent& ae = active_.at(id.value());
      while (!ae.deferred.empty()) {
        any_deferred = true;
        const std::size_t flow_idx = ae.deferred.front();
        const flow::Flow& f = ae.event->flows()[flow_idx];
        // Prefer a surviving path; only when the fault state severed the
        // pair entirely does the forced placement fall back to the raw
        // provider (and get reported via forced_placements).
        const bool pair_alive = !provider_.Paths(f.src, f.dst).empty();
        const topo::Path& path = net::LeastCongestedPath(
            network_, pair_alive ? provider_ : alive_paths_.base(), f.src,
            f.dst, f.demand);
        const FlowId placed = network_.ForcePlace(f, path);
        if (lossy_) ae.flow_index.emplace(placed.value(), flow_idx);
        const FlowId placed_ids[] = {placed};
        ScheduleBatch(ae, id, placed_ids, now_,
                      config_.cost_model.InstallTime(1));
        ae.deferred.pop_front();
        ++result_.forced_placements;
      }
    }
    return any_deferred;
  }

  /// Advances virtual time and handles every occurrence now due. Each
  /// handler returns true when it freed capacity.
  void DrainTimeline() {
    Seconds next_time = std::numeric_limits<double>::infinity();
    if (next_arrival_ < pending_.size()) {
      next_time = pending_[next_arrival_]->arrival_time();
    }
    if (!timeline_.empty()) {
      next_time = std::min(next_time, timeline_.NextTime());
    }
    now_ = std::max(now_, next_time);

    bool freed = false;
    while (!timeline_.empty() && timeline_.NextTime() <= now_ + kTimeEpsilon) {
      const auto entry = timeline_.Pop();
      ++occurrences_since_audit_;
      if (Handle(entry.payload, entry.time)) freed = true;
    }
    if (freed) RetryDeferred();
  }

  bool Handle(const Occurrence& occ, Seconds t) {
    using Kind = Occurrence::Kind;
    switch (occ.kind) {
      case Kind::kDeparture: return OnDeparture(occ);
      case Kind::kBackgroundDeparture: return OnBackgroundDeparture(occ);
      case Kind::kInstallDone: return OnInstallDone(occ, t);
      case Kind::kInstallAborted: return OnInstallAborted(occ, t);
      case Kind::kFault: return OnFault(occ, t);
      case Kind::kWatchdog: return OnWatchdog(occ, t);
      case Kind::kRequeue: return OnRequeue(occ, t);
      case Kind::kCascadeFault: return OnCascadeFault(occ, t);
      case Kind::kReconcile: return OnReconcile(t);
      case Kind::kGreyApply: recon_.GreyApply(occ, t); break;
      case Kind::kRuleLoss: recon_.RuleLoss(network_, occ, t); break;
    }
    return false;
  }

  /// An event flow's transmission finished. A flow killed by a fault (or
  /// rolled back by the watchdog) has no bandwidth left to release; its
  /// stale departure is a no-op (flow ids are never reused).
  bool OnDeparture(const Occurrence& occ) {
    if (lossy_ && !network_.HasFlow(occ.flow)) return false;
    network_.Remove(occ.flow);
    recon_.DropFlow(occ.flow);
    return true;
  }

  /// Killed background flows are not replaced: the churn process only
  /// replaces flows that ended naturally.
  bool OnBackgroundDeparture(const Occurrence& occ) {
    if (faults_on_ && !network_.HasFlow(occ.flow)) return false;
    network_.Remove(occ.flow);
    if (const std::optional<FlowId> placed =
            churn_.SpawnReplacement(network_, provider_)) {
      timeline_.Push(now_ + network_.FlowOf(*placed).duration,
                     Occurrence{Occurrence::Kind::kBackgroundDeparture,
                                *placed, EventId::invalid(), 0, {}});
    }
    return true;
  }

  /// The event's batch finished installing.
  bool OnInstallDone(const Occurrence& occ, Seconds t) {
    ActiveEvent* const batch_owner = CloseBatch(occ);
    if (batch_owner == nullptr) return false;
    ActiveEvent& ae = *batch_owner;
    if (lossy_) {
      for (FlowId fid : occ.flows) {
        if (!network_.HasFlow(fid)) continue;  // killed mid-install
        ++ae.installed;
        ae.installed_ids.insert(fid.value());
        const auto idx_it = ae.flow_index.find(fid.value());
        NU_CHECK(idx_it != ae.flow_index.end());
        const auto rec = ae.pending_recovery.find(idx_it->second);
        if (rec != ae.pending_recovery.end()) {
          collector_.OnRecovery(t - rec->second.time, rec->second.srlg);
          ae.pending_recovery.erase(rec);
        }
      }
    } else {
      ae.installed += occ.flows.size();
    }
    // Freshly installed flows issue their dataplane rules through the grey
    // pipeline (no-op when the dataplane model is off). Install COMPLETION
    // is the controller's view — the switches ack every rule — so grey
    // divergence never delays the event; it surfaces as drift the
    // reconciler must repair.
    recon_.IssueRules(network_, occ.flows, t, lossy_);
    if (ae.Complete()) {
      collector_.OnCompletion(occ.event, t);
      if (serve_rt_.has_value()) serve_rt_->OnCompletion(*ae.event, t);
      ckpt_.Commit(ckpt::WalOp::kComplete, occ.event.value(), t);
      ++completed_count_;
      Deactivate(occ.event);
    }
    return false;
  }

  /// Retries exhausted: roll the batch back (remove its placements) and
  /// re-defer the flows for replanning.
  bool OnInstallAborted(const Occurrence& occ, Seconds t) {
    ActiveEvent* const batch_owner = CloseBatch(occ);
    if (batch_owner == nullptr) return false;
    ActiveEvent& ae = *batch_owner;
    collector_.OnInstallAborted(occ.event);
    for (FlowId fid : occ.flows) {
      if (!network_.HasFlow(fid)) continue;  // a fault beat us to it
      const auto idx_it = ae.flow_index.find(fid.value());
      NU_CHECK(idx_it != ae.flow_index.end());
      const std::size_t flow_idx = idx_it->second;
      network_.Remove(fid);
      ae.flow_index.erase(idx_it);
      ae.pending_recovery.emplace(flow_idx,
                                  ActiveEvent::PendingRecovery{t, false});
      ae.deferred.push_back(flow_idx);
    }
    return true;  // freed capacity: worth retrying deferred flows
  }

  bool OnFault(const Occurrence& occ, Seconds t) {
    return FireFault(config_.faults.plan.specs()[occ.fault_index],
                     occ.fault_index, /*cascade=*/false, t);
  }

  /// Cascade faults share the kFault WAL op; their subject indices are
  /// offset past the static plan so replay can tell the streams apart.
  bool OnCascadeFault(const Occurrence& occ, Seconds t) {
    return FireFault(dynamic_faults_[occ.fault_index],
                     config_.faults.plan.specs().size() + occ.fault_index,
                     /*cascade=*/true, t);
  }

  /// Flips topology state and strands the flows crossing the dead element.
  bool FireFault(const fault::FaultSpec& spec, std::uint64_t wal_subject,
                 bool cascade, Seconds t) {
    const std::span<const fault::SharedRiskGroup> groups{
        config_.faults.plan.groups()};
    const std::vector<FlowId> victims =
        fault::AffectedFlows(network_, spec, groups);
    fault::ApplyFaultState(network_, spec, groups);
    ckpt_.Commit(ckpt::WalOp::kFault, wal_subject, t);
    if (spec.IsDown() && !cascade) {
      // Cascade failures were counted when the engine fired them; a primary
      // incident (re)starts a cascade episode at depth 1.
      if (spec.IsGroupFault()) {
        collector_.OnGroupFault();
      } else {
        collector_.OnFault(spec.IsLinkFault());
      }
      cascade_.OnPrimaryFault();
    }
    std::unordered_set<EventId::rep_type> replanned;
    for (FlowId victim : victims) {
      const EventId owner = network_.FlowOf(victim).event;
      network_.Remove(victim);
      recon_.DropFlow(victim);
      collector_.OnFlowKilled();
      if (!owner.valid()) continue;  // background: killed outright
      const auto owner_it = active_.find(owner.value());
      if (owner_it == active_.end()) continue;  // event already complete
      // In-flight event flow: roll it back to deferred so the planner
      // re-places it on surviving paths.
      ActiveEvent& ae = owner_it->second;
      const auto idx_it = ae.flow_index.find(victim.value());
      NU_CHECK(idx_it != ae.flow_index.end());
      const std::size_t flow_idx = idx_it->second;
      ae.flow_index.erase(idx_it);
      if (ae.installed_ids.erase(victim.value()) > 0) {
        NU_CHECK(ae.installed > 0);
        --ae.installed;  // un-install: completion now needs the redo
      }
      ae.pending_recovery.emplace(
          flow_idx, ActiveEvent::PendingRecovery{t, spec.IsGroupFault()});
      ae.deferred.push_back(flow_idx);
      if (replanned.insert(owner.value()).second) {
        collector_.OnEventReplanned(owner);
      }
    }
    // Up-events restore capacity; down-events free the victims' shares
    // elsewhere on their old paths. Either way deferred flows may fit now,
    // so treat the fault like a departure.
    audit_due_ = true;  // faults always trigger an audit pass
    return true;
  }

  /// Fires once per execution attempt. Stale when the watched activation
  /// already completed, was aborted, or was superseded.
  bool OnWatchdog(const Occurrence& occ, Seconds t) {
    const auto it = active_.find(occ.event.value());
    if (it == active_.end() || it->second.generation != occ.generation) {
      return false;
    }
    collector_.OnDeadlineMiss(occ.event);
    // Abort + roll back the whole attempt: every placement of this
    // activation is removed, returning its bandwidth. In-flight install
    // occurrences and departures become stale (generation mismatch /
    // missing flows) and are skipped when they fire. Removal runs in
    // ascending flow-id order (the map's order), so the residuals add the
    // released demands in a fixed order.
    for (const auto& [fid_rep, _] : it->second.flow_index) {
      const FlowId fid{fid_rep};
      if (network_.HasFlow(fid)) network_.Remove(fid);
      recon_.DropFlow(fid);
    }
    Deactivate(occ.event);
    if (watchdog_.RecordMiss(occ.event)) {
      // Poison: out of failure budget — quarantine instead of another round
      // of livelock.
      collector_.OnQuarantined(occ.event, t);
      if (serve_rt_.has_value()) {
        serve_rt_->OnQuarantined(*event_by_id_.at(occ.event.value()));
      }
      ckpt_.Commit(ckpt::WalOp::kQuarantine, occ.event.value(), t);
      ++quarantined_count_;
    } else {
      timeline_.Push(t + watchdog_.RequeueDelay(occ.event),
                     Occurrence{Occurrence::Kind::kRequeue, FlowId::invalid(),
                                occ.event, 0, {}});
      ++parked_count_;
    }
    return true;  // the rollback freed capacity
  }

  /// Backoff elapsed: the aborted event re-enters through admission control
  /// (a full queue may shed it — then it terminates kAborted).
  bool OnRequeue(const Occurrence& occ, Seconds t) {
    --parked_count_;
    if (Admit(event_by_id_.at(occ.event.value()))) {
      collector_.OnRequeued(occ.event);
      ckpt_.Commit(ckpt::WalOp::kRequeue, occ.event.value(), t);
    }
    return false;
  }

  bool OnReconcile(Seconds t) {
    for (const NodeId node : recon_.Pass(network_, t)) {
      // Quarantine-with-drain: the switch leaves service exactly like a
      // switch-down fault (victim sweep, WAL commit, audit trigger) via a
      // dynamic fault spec fired at `t`. Dynamic faults are counted here
      // (the firing path skips accounting for them, matching the cascade
      // engine).
      collector_.OnFault(/*link_fault=*/false);
      fault::FaultSpec down;
      down.time = t;
      down.kind = fault::FaultKind::kSwitchDown;
      down.node = node;
      PushDynamicFault(down);
    }
    recon_.Rearm(t, !active_.empty() || !queue_.empty() ||
                        parked_count_ > 0 || next_arrival_ < pending_.size());
    return false;
  }

  /// Schedules an install batch starting at `start` with nominal rule-push
  /// latency `nominal_install`. With a healthy pipeline the flows become
  /// installed at start + nominal_install; each starts transmitting then
  /// and departs after its duration. Under the flaky model the batch is run
  /// through the injector: success stretches the latency (jitter + backoff
  /// waits), exhaustion schedules an abort instead — its placements roll
  /// back when the abort fires.
  void ScheduleBatch(ActiveEvent& ae, EventId id,
                     std::span<const FlowId> flows, Seconds start,
                     Seconds nominal_install) {
    ++ae.batches_in_flight;
    std::vector<FlowId> batch(flows.begin(), flows.end());
    Seconds install_end = start + nominal_install;
    if (faults_on_) {
      const fault::InstallTrial trial =
          injector_.SampleInstall(nominal_install, start);
      collector_.OnInstallBatch(trial.attempts, !trial.success);
      if (!trial.success) {
        timeline_.Push(start + trial.wasted_delay,
                       Occurrence{Occurrence::Kind::kInstallAborted,
                                  FlowId::invalid(), id, 0, std::move(batch),
                                  ae.generation});
        return;
      }
      install_end =
          start + trial.wasted_delay + trial.latency_factor * nominal_install;
    }
    // Push order (kInstallDone first, then departures) is part of the
    // deterministic tie-break for same-time occurrences — keep it stable.
    timeline_.Push(install_end,
                   Occurrence{Occurrence::Kind::kInstallDone,
                              FlowId::invalid(), id, 0, std::move(batch),
                              ae.generation});
    for (FlowId fid : flows) {
      timeline_.Push(install_end + network_.FlowOf(fid).duration,
                     Occurrence{Occurrence::Kind::kDeparture, fid, id, 0, {}});
    }
  }

  /// Retries deferred flows of active events (activation order) against the
  /// freed capacity. A retry is a cheap admission check; full migration
  /// planning runs only every kMigrationRetryPeriod-th failure, so frequent
  /// churn departures stay inexpensive. Stops at the first still-
  /// unplaceable flow per event (head-of-line within the event).
  void RetryDeferred() {
    const CostModel& costs = config_.cost_model;
    for (EventId id : active_order_) {
      ActiveEvent& ae = active_.at(id.value());
      while (!ae.deferred.empty()) {
        const std::size_t flow_idx = ae.deferred.front();
        const flow::Flow& f = ae.event->flows()[flow_idx];
        Mbps migrated = 0.0;
        std::optional<FlowId> placed;
        if (const topo::Path* direct = net::FindFeasiblePathPtr(
                network_, provider_, f.src, f.dst, f.demand,
                config_.path_selection)) {
          placed = network_.Place(f, *direct);
          total_plan_time_ += costs.plan_time_per_flow;
        } else if (++ae.retry_failures % kMigrationRetryPeriod == 0) {
          placed = planner_.PlaceFlow(network_, f, &migrated);
          total_plan_time_ += costs.plan_time_per_flow;
        }
        if (!placed.has_value()) break;
        ae.retry_failures = 0;
        if (lossy_) ae.flow_index.emplace(placed->value(), flow_idx);
        collector_.OnCost(id, migrated);
        ckpt_.Commit(ckpt::WalOp::kMigration, id.value(), migrated);
        const FlowId placed_ids[] = {*placed};
        ScheduleBatch(ae, id, placed_ids,
                      now_ + costs.MigrationTime(migrated),
                      costs.InstallTime(1));
        ae.deferred.pop_front();
      }
    }
  }

  /// The active event an install batch belongs to, with the batch closed,
  /// or nullptr when the batch is stale. A fault can kill every flow of an
  /// in-flight batch; replacements may then complete the event before the
  /// batch's occurrence fires, so a stale batch holds only dead flows —
  /// nothing to roll back. The watchdog strands batches the same way (abort
  /// or quarantine); a batch of a watchdog-aborted activation carries an
  /// old generation, and its placements were rolled back with the abort.
  ActiveEvent* CloseBatch(const Occurrence& occ) {
    const auto it = active_.find(occ.event.value());
    if (it == active_.end()) {
      NU_CHECK(lossy_);
      return nullptr;
    }
    ActiveEvent& ae = it->second;
    if (ae.generation != occ.generation) {
      NU_CHECK(watchdog_on_);
      return nullptr;
    }
    NU_CHECK(ae.batches_in_flight > 0);
    --ae.batches_in_flight;
    return &ae;
  }

  void Deactivate(EventId id) {
    active_.erase(id.value());
    active_order_.erase(
        std::find(active_order_.begin(), active_order_.end(), id));
  }

  void PushDynamicFault(const fault::FaultSpec& spec) {
    timeline_.Push(spec.time, Occurrence{Occurrence::Kind::kCascadeFault,
                                         FlowId::invalid(), EventId::invalid(),
                                         dynamic_faults_.size(), {}});
    dynamic_faults_.push_back(spec);
  }

  /// After each occurrence batch: cascade observation, serve tick and
  /// audit.
  void AfterBatch() {
    const fault::CascadeConfig& cascade = config_.faults.cascade;
    if (cascade.enabled()) {
      // Sustained overload observed now becomes a secondary failure: the
      // tripped link goes down as a dynamic fault (and comes back after the
      // configured outage).
      for (const fault::CascadeEvent& ce : cascade_.Observe(network_, now_)) {
        collector_.OnCascadeFailure(ce.depth);
        fault::FaultSpec down;
        down.time = now_;
        down.kind = fault::FaultKind::kLinkDown;
        down.link = ce.link;
        PushDynamicFault(down);
        if (cascade.outage > 0.0) {
          fault::FaultSpec up;
          up.time = now_ + cascade.outage;
          up.kind = fault::FaultKind::kLinkUp;
          up.link = ce.link;
          PushDynamicFault(up);
        }
      }
    }
    if (serve_rt_.has_value()) {
      // Occurrence batches are the other brownout observation points: the
      // drain just moved the clock and may have completed events, fired
      // faults, or stressed links.
      serve_rt_->Tick(network_, now_, queue_.size(), active_.size());
    }
    // Degradation ladder level 2+: optional cadence audits are suppressed
    // to shed audit work under overload; fault-triggered (audit_due_) and
    // final audits always run.
    const bool suppress_cadence_audit =
        serve_rt_.has_value() && serve_rt_->SuppressOptionalAudits();
    if (audit_on_ &&
        (audit_due_ ||
         (occurrences_since_audit_ >= config_.guard.auditor.cadence &&
          !suppress_cadence_audit))) {
      RunAudit();
      occurrences_since_audit_ = 0;
      audit_due_ = false;
    }
  }

  /// One full audit pass over the live run state. The event-conservation
  /// buckets come straight from the loop's own counters; everything else
  /// the auditor recomputes from the network itself.
  void RunAudit() {
    guard::QueueAccounting acct;
    acct.arrived = collector_.records().size();
    acct.queued = queue_.size();
    acct.active = active_.size();
    acct.parked = parked_count_;
    acct.completed = completed_count_;
    acct.shed = shed_count_;
    acct.quarantined = quarantined_count_;
    acct.queue_capacity = config_.guard.overload.max_queue_length;
    // Bounded-drift invariant (recon subsystem): a switch continuously at
    // drift past the configured pass budget without quarantine is a
    // liveness violation.
    guard::DriftAuditInput drift_input;
    const guard::DriftAuditInput* drift_ptr = nullptr;
    if (recon_.reconciling() && config_.recon.max_passes_at_drift > 0) {
      drift_input.max_passes = config_.recon.max_passes_at_drift;
      for (const recon::DriftStreak& streak :
           recon_.reconciler().DriftStreaks()) {
        drift_input.entries.push_back({streak.node, streak.passes});
      }
      drift_ptr = &drift_input;
    }
    collector_.OnAudit(auditor_.Audit(
        network_, acct, result_.forced_placements,
        guard::AuditContext{result_.rounds, network_.topology_epoch()},
        drift_ptr));
  }

  /// The complete mid-run controller state at a round boundary: each
  /// owner's section in a fixed order. The order IS the snapshot payload
  /// format — bump ckpt::kSnapshotVersion on any change. Active events are
  /// written in activation order, the timeline in canonical (time, seq)
  /// pop order; ordered containers write in key order.
  void SaveState(BinWriter& w) const {
    network_.SaveState(w);
    collector_.SaveState(w);
    watchdog_.SaveState(w);
    churn_.Save(w);
    // Faults: the injector stream, the cascade engine, and the dynamic
    // fault specs the timeline's kCascadeFault entries index into.
    SaveRngState(w, injector_.GetRngState());
    cascade_.SaveState(w);
    w.Vec(dynamic_faults_, [](BinWriter& o, const fault::FaultSpec& spec) {
      o.F64(spec.time);
      o.U8(static_cast<std::uint8_t>(spec.kind));
      o.U64(spec.link.value());
      o.U64(spec.node.value());
      o.U64(spec.group);
    });
    // The loop's own state.
    SaveRngState(w, rng_.GetState());
    w.U64(result_.rounds);
    w.U64(result_.cost_probes);
    w.U64(result_.cofeasibility_probes);
    w.U64(result_.forced_placements);
    w.U64(next_arrival_);
    w.Vec(queue_, [](BinWriter& o, const update::UpdateEvent* e) {
      o.U64(e->id().value());
    });
    w.Size(active_order_.size());
    for (EventId id : active_order_) active_.at(id.value()).Save(w);
    w.Size(activation_count_.size());
    for (const auto& [rep, count] : activation_count_) {
      w.U64(rep);
      w.U64(count);
    }
    w.U64(parked_count_);
    w.U64(completed_count_);
    w.U64(shed_count_);
    w.U64(quarantined_count_);
    w.F64(now_);
    w.F64(total_plan_time_);
    w.U64(occurrences_since_audit_);
    w.Bool(audit_due_);
    const auto entries = timeline_.SortedEntries();
    w.Size(entries.size());
    for (const auto& entry : entries) {
      w.F64(entry.time);
      w.U64(entry.seq);
      entry.payload.Save(w);
    }
    w.U64(timeline_.next_seq());
    // Optional sections: present exactly when the config enables the
    // subsystem, so a reader with the same SimConfig always agrees.
    if (serve_rt_.has_value()) serve_rt_->SaveState(w);
    if (recon_.on()) recon_.Save(w);
  }

  /// Mirror of SaveState. Replaces every piece of loop state, so a partial
  /// restore followed by a fallback to an older snapshot is safe. Unknown
  /// ids, out-of-range indices and enum values throw CorruptInput — the
  /// caller treats the snapshot as corrupt and falls back.
  void LoadState(BinReader& r) {
    network_.LoadState(r);
    collector_.LoadState(r);
    watchdog_.LoadState(r);
    churn_.Load(r);
    injector_.SetRngState(LoadRngState(r));
    cascade_.LoadState(r);
    dynamic_faults_ = r.Vec<fault::FaultSpec>([](BinReader& in) {
      fault::FaultSpec spec;
      spec.time = in.F64();
      const std::uint8_t kind = in.U8();
      if (kind > static_cast<std::uint8_t>(fault::FaultKind::kGroupUp)) {
        throw CorruptInput("bad fault kind");
      }
      spec.kind = static_cast<fault::FaultKind>(kind);
      spec.link = LinkId{static_cast<LinkId::rep_type>(in.U64())};
      spec.node = NodeId{static_cast<NodeId::rep_type>(in.U64())};
      spec.group = static_cast<std::size_t>(in.U64());
      return spec;
    });
    rng_.SetState(LoadRngState(r));
    result_.rounds = static_cast<std::size_t>(r.U64());
    result_.cost_probes = static_cast<std::size_t>(r.U64());
    result_.cofeasibility_probes = static_cast<std::size_t>(r.U64());
    result_.forced_placements = static_cast<std::size_t>(r.U64());
    next_arrival_ = static_cast<std::size_t>(r.U64());
    queue_ = r.Vec<const update::UpdateEvent*>(
        [this](BinReader& in) { return &LoadEvent(in, event_by_id_); });
    active_.clear();
    active_order_.clear();
    const std::size_t active_size = r.Size();
    for (std::size_t i = 0; i < active_size; ++i) {
      ActiveEvent ae = ActiveEvent::Load(r, event_by_id_);
      const EventId id = ae.event->id();
      if (!active_.emplace(id.value(), std::move(ae)).second) {
        throw CorruptInput("duplicate active event");
      }
      active_order_.push_back(id);
    }
    activation_count_.clear();
    const std::size_t activated_size = r.Size();
    for (std::size_t i = 0; i < activated_size; ++i) {
      const EventId::rep_type rep = r.U64();
      activation_count_.emplace(rep, r.U64());
    }
    parked_count_ = static_cast<std::size_t>(r.U64());
    completed_count_ = static_cast<std::size_t>(r.U64());
    shed_count_ = static_cast<std::size_t>(r.U64());
    quarantined_count_ = static_cast<std::size_t>(r.U64());
    now_ = r.F64();
    total_plan_time_ = r.F64();
    occurrences_since_audit_ = static_cast<std::size_t>(r.U64());
    audit_due_ = r.Bool();
    const OccurrenceBounds bounds{
        event_by_id_, config_.faults.plan.specs().size(),
        dynamic_faults_.size(), network_.graph().node_count()};
    std::vector<TimelineQueue<Occurrence>::Entry> entries(r.Size());
    for (auto& entry : entries) {
      entry.time = r.F64();
      entry.seq = r.U64();
      entry.payload = Occurrence::Load(r, bounds);
    }
    const std::uint64_t next_seq = r.U64();
    for (const auto& entry : entries) {
      if (entry.seq >= next_seq) throw CorruptInput("timeline seq past next");
    }
    recon_.Recount(entries);
    timeline_.Restore(std::move(entries), next_seq);
    if (serve_rt_.has_value()) serve_rt_->LoadState(r);
    if (recon_.on()) recon_.Load(r);
  }

  SimResult Finish() {
    // Final audit: acceptance is "zero violations at end of run", so the
    // last pass always runs regardless of where the cadence counter stands
    // (and regardless of brownout audit suppression).
    if (audit_on_) RunAudit();
    if (serve_rt_.has_value()) {
      serve_rt_->Finish(now_, queue_.size(), active_.size());
      result_.serve = serve_rt_->BuildSummary();
      result_.serve_timeseries_csv = serve_rt_->TimeseriesCsv();
      result_.serve_tenant_csv = serve_rt_->TenantReportCsv();
    }
    NU_CHECK(collector_.AllTerminal());

    result_.records = collector_.records();
    result_.fault_stats = collector_.fault_stats();
    result_.guard_stats = collector_.guard_stats();
    result_.violations = auditor_.violations();
    result_.probe_stats = collector_.probe_stats();
    if (shard_rt_.has_value()) result_.shard_stats = shard_rt_->stats();
    result_.report = metrics::BuildReport(collector_, total_plan_time_,
                                          config_.tail_percentile);
    ckpt_.Finish(result_.report);
    recon_.Finish(result_);
    return std::move(result_);
  }

  // --- Configuration ---
  const SimConfig& config_;
  sched::Scheduler& scheduler_;
  const bool faults_on_ = config_.faults.enabled();
  const bool watchdog_on_ = config_.guard.deadline.enabled();
  const bool audit_on_ = config_.guard.auditor.enabled;
  /// Placed flows can disappear out from under scheduled occurrences
  /// (fault kills, watchdog rollbacks), which turns on the per-flow
  /// bookkeeping and stale-occurrence tolerance.
  const bool lossy_ = faults_on_ || watchdog_on_;
  fault::CrashSpec crash_;

  // --- Run state: queue, active set, timeline, clocks and counters ---
  SimResult result_;
  metrics::Collector collector_;
  net::Network network_;
  Rng rng_{config_.seed};
  TimelineQueue<Occurrence> timeline_;
  std::vector<const update::UpdateEvent*> pending_;  // by arrival time
  std::size_t next_arrival_ = 0;
  /// Requeue lookups (kRequeue carries only the EventId).
  EventIndex event_by_id_;
  std::vector<const update::UpdateEvent*> queue_;
  std::unordered_map<EventId::rep_type, ActiveEvent> active_;
  std::vector<EventId> active_order_;
  /// Activation generations for stale-occurrence detection.
  std::map<EventId::rep_type, std::uint64_t> activation_count_;
  // Event-conservation buckets the auditor cross-checks: every arrived
  // event is queued, active, parked, completed, shed, or quarantined.
  std::size_t parked_count_ = 0;
  std::size_t completed_count_ = 0;
  std::size_t shed_count_ = 0;
  std::size_t quarantined_count_ = 0;
  Seconds now_ = 0.0;
  Seconds total_plan_time_ = 0.0;

  // --- Planning ---
  ReconRuntime recon_{config_, timeline_};
  /// Alive (and, with the reconciler, healthy) paths; re-filters whenever
  /// the topology or health epoch changes.
  topo::PredicatePathProvider alive_paths_;
  const topo::PathProvider& provider_;
  update::EventPlanner planner_{provider_, config_.migration_options,
                                config_.path_selection};
  ProbeRuntime probe_rt_;
  std::optional<ShardRuntime> shard_rt_;

  // --- Faults ---
  fault::FaultInjector injector_{
      config_.faults, StreamSeed(config_.seed, RngStream::kFaultInjection)};
  fault::CascadeEngine cascade_{config_.faults.cascade};
  /// Cascade- and quarantine-generated specs; kCascadeFault occurrences
  /// index into this list, parallel to the plan's static specs.
  std::vector<fault::FaultSpec> dynamic_faults_;

  // --- Guard ---
  guard::Watchdog watchdog_{config_.guard.deadline};
  guard::Auditor auditor_{config_.guard.auditor};
  std::size_t occurrences_since_audit_ = 0;
  bool audit_due_ = false;

  // --- Serve, churn, checkpoints ---
  std::optional<serve::ServeRuntime> serve_rt_;
  ChurnProcess churn_;
  Checkpointer ckpt_;
};

}  // namespace

SimResult Simulator::Run(sched::Scheduler& scheduler,
                         std::span<const update::UpdateEvent> events) {
  return EventLoop(initial_, paths_, config_, churn_factory_, scheduler,
                   events, /*resume=*/false)
      .Run();
}

SimResult Simulator::Resume(sched::Scheduler& scheduler,
                            std::span<const update::UpdateEvent> events) {
  return EventLoop(initial_, paths_, config_, churn_factory_, scheduler,
                   events, /*resume=*/true)
      .Run();
}

}  // namespace nu::sim
