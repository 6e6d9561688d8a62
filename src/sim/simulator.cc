#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "ckpt/journal.h"
#include "ckpt/snapshot.h"
#include "common/arena.h"
#include "common/binio.h"
#include "common/logging.h"
#include "common/rng_streams.h"
#include "common/thread_pool.h"
#include "fault/cascade.h"
#include "fault/injector.h"
#include "guard/shard_pressure.h"
#include "metrics/collector.h"
#include "net/admission.h"
#include "net/overlay.h"
#include "sched/select.h"
#include "sim/shard_runtime.h"
#include "topo/path_provider.h"
#include "update/cost_estimate.h"

namespace nu::sim {
namespace {

constexpr double kTimeEpsilon = 1e-9;

/// Probe fast-path wiring shared by the rounds of one Run: configuration,
/// the optional worker pool, and the run-wide counters.
struct ProbeRuntime {
  /// Probes run on overlays (true) or deep copies (legacy baseline, false).
  bool fast_path = true;
  /// Epoch-keyed cost/plan caching (requires fast_path).
  bool cache_enabled = true;
  /// Non-null when parallel candidate probing is on.
  ThreadPool* pool = nullptr;
  /// Run-wide scratch for quick-probe scoring. Quick probes only ever run
  /// on the simulation thread (the parallel and sharded batch paths handle
  /// full probes exclusively), so one arena serves the whole run and the
  /// steady-state scoring loop stays allocation-free once warmed.
  Arena score_arena;
  metrics::ProbeStats stats;
};

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

using ProbeCache = std::unordered_map<EventId::rep_type, ProbeCacheEntry>;

using ProbeClock = std::chrono::steady_clock;

double SecondsSince(ProbeClock::time_point start) {
  return std::chrono::duration<double>(ProbeClock::now() - start).count();
}

void SaveRngState(BinWriter& w, const Rng::State& s) {
  for (std::uint64_t word : s.words) w.U64(word);
  w.F64(s.spare_normal);
  w.Bool(s.has_spare_normal);
}

Rng::State LoadRngState(BinReader& r) {
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
  /// Placed flow id -> index into event->flows(). Lets fault handlers map a
  /// stranded placement back to the event flow that must be replanned.
  std::unordered_map<FlowId::rep_type, std::size_t> flow_index;
  /// Placed ids whose installation completed (subset of flow_index keys).
  /// Killing one of these un-installs it (decrements `installed`).
  std::unordered_set<FlowId::rep_type> installed_ids;
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
  std::unordered_map<std::size_t, PendingRecovery> pending_recovery;

  [[nodiscard]] bool Complete() const {
    return installed == event->flow_count();
  }
};

/// How often a deferred-flow retry escalates from a cheap admission check to
/// full migration planning.
constexpr std::size_t kMigrationRetryPeriod = 20;

/// SchedulingContext implementation for one round. Charges probe costs and
/// memoizes the scratch state used by incremental co-feasibility checks.
///
/// Fast path (ProbeRuntime::fast_path): every what-if plan runs on a
/// copy-on-write overlay over the frozen round network; the legacy baseline
/// deep-copies instead. Cache hits skip only the planning work — modeled
/// plan time, probe counters, and probed-marking are identical either way,
/// so decisions and golden metrics cannot drift.
class RoundContext final : public sched::SchedulingContext {
 public:
  RoundContext(const net::Network& network, const update::EventPlanner& planner,
               const CostModel& cost_model,
               std::span<const sched::QueuedEvent> queue, Rng& rng,
               Mbps co_migration_allowance, bool quick_cost_probes,
               sched::QueuePressure pressure, ProbeRuntime& probe_rt,
               ProbeCache& probe_cache, int degradation_level,
               ShardRuntime* shard_rt)
      : network_(network),
        planner_(planner),
        cost_model_(cost_model),
        queue_(queue),
        rng_(rng),
        probed_bits_(queue.size(), 0),
        co_migration_allowance_(co_migration_allowance),
        quick_cost_probes_(quick_cost_probes),
        pressure_(pressure),
        probe_rt_(probe_rt),
        probe_cache_(probe_cache),
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
    const update::UpdateEvent& event = *queue_[index].event;
    ++cost_probes_;

    if (quick_cost_probes_) {
      // Estimate-based probe: much cheaper, and the winner is NOT marked
      // probed — execution still pays for (and computes) the full plan.
      plan_time_ += cost_model_.quick_probe_factor *
                    cost_model_.ProbeTime(event.flow_count());
      if (const ProbeCacheEntry* entry = CacheLookup(event.id())) {
        ++probe_rt_.stats.probe_cache_hits;
        return entry->cost;
      }
      const auto start = ProbeClock::now();
      const Mbps score = update::QuickCostScore(network_, planner_.paths(),
                                                event, probe_rt_.score_arena);
      probe_rt_.stats.probe_wall_seconds += SecondsSince(start);
      CacheStore(event.id(), score, nullptr);
      return score;
    }

    plan_time_ += cost_model_.ProbeTime(event.flow_count());
    probed_bits_[index] = 1;

    if (const ProbeCacheEntry* entry = CacheLookup(event.id())) {
      ++probe_rt_.stats.probe_cache_hits;
      return entry->cost;
    }
    const auto start = ProbeClock::now();
    update::EventPlan plan = FullProbePlan(event);
    probe_rt_.stats.probe_wall_seconds += SecondsSince(start);
    const Mbps cost = ProbedCost(plan, event);
    CacheStore(event.id(), cost, &plan);
    return cost;
  }

  void ProbeCosts(std::span<const std::size_t> indices,
                  std::span<Mbps> out) override {
    // The sharded engine routes the batch through the per-shard mailbox;
    // like the flat-parallel path, it only pays off for full overlay
    // probes on a real batch.
    if (shard_rt_ != nullptr && probe_rt_.fast_path && !quick_cost_probes_ &&
        indices.size() >= 2) {
      ShardedProbeCosts(indices, out);
      return;
    }
    // Parallel evaluation pays off only for full overlay probes; quick
    // probes are too cheap and the legacy baseline stays sequential (it
    // models the original code path).
    if (probe_rt_.pool == nullptr || !probe_rt_.fast_path ||
        quick_cost_probes_ || indices.size() < 2) {
      sched::SchedulingContext::ProbeCosts(indices, out);
      return;
    }
    NU_EXPECTS(out.size() >= indices.size());

    // Phase 1 (reads only): resolve cache hits BY VALUE (a later store may
    // rehash the map) and dispatch every miss to the pool. Workers run pure
    // what-if plans against the frozen round network; nothing else is
    // shared mutable state.
    const auto start = ProbeClock::now();
    std::vector<char> is_hit(indices.size(), 0);
    std::vector<Mbps> hit_cost(indices.size(), 0.0);
    std::vector<std::future<update::EventPlan>> pending(indices.size());
    bool dispatched = false;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const update::UpdateEvent& event = *queue_[indices[i]].event;
      if (const ProbeCacheEntry* entry = CacheLookup(event.id())) {
        is_hit[i] = 1;
        hit_cost[i] = entry->cost;
        continue;
      }
      pending[i] = probe_rt_.pool->Submit(
          [this, &event] { return planner_.Plan(network_, event); });
      dispatched = true;
    }
    if (dispatched) ++probe_rt_.stats.parallel_probe_batches;

    // Phase 2 (simulation thread, candidate order): identical bookkeeping
    // to sequential ProbeCost calls — same accumulation order for the
    // modeled plan time, same counters, same cache stores — so the batch is
    // bit-identical to probing one by one.
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const update::UpdateEvent& event = *queue_[indices[i]].event;
      ++cost_probes_;
      plan_time_ += cost_model_.ProbeTime(event.flow_count());
      probed_bits_[indices[i]] = 1;
      if (is_hit[i] != 0) {
        ++probe_rt_.stats.probe_cache_hits;
        out[i] = hit_cost[i];
        continue;
      }
      update::EventPlan plan = pending[i].get();
      ++probe_rt_.stats.overlay_probes;
      probe_rt_.stats.overlay_bytes_saved +=
          static_cast<double>(StateBytes());
      const Mbps cost = ProbedCost(plan, event);
      CacheStore(event.id(), cost, &plan);
      out[i] = cost;
    }
    probe_rt_.stats.probe_wall_seconds += SecondsSince(start);
  }

  bool ProbeCoFeasible(std::span<const std::size_t> selected,
                       std::size_t index) override {
    NU_EXPECTS(index < queue_.size());
    const update::UpdateEvent& event = *queue_[index].event;
    plan_time_ += cost_model_.CoFeasibilityTime(event.flow_count());
    ++cofeasibility_probes_;
    probed_bits_[index] = 1;

    const auto start = ProbeClock::now();
    net::MutableNetwork& scratch = EnsureScratch(selected);
    const update::EventPlan plan = probe_rt_.fast_path
                                       ? ProbeOnOverlay(scratch, event)
                                       : ProbeOnCopy(event);
    probe_rt_.stats.probe_wall_seconds += SecondsSince(start);
    if (!plan.fully_feasible) return false;
    // Near-free wins only: co-scheduling should not buy parallelism with
    // migration cost that waiting (and churn) might avoid.
    if (plan.migrated_traffic > co_migration_allowance_) return false;
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
  /// Sharded batch probe (docs/model.md §15). Phase 1 resolves cache hits
  /// by value, groups the misses by home shard, and runs one planning task
  /// per non-empty shard; each task posts its results to the inter-shard
  /// mailbox tagged (shard, seq). The coordinator drains the round in the
  /// canonical (shard, seq) order, restores candidate order via the slot
  /// index, and then runs phase 2 — bookkeeping identical to sequential
  /// ProbeCost calls, so the batch is bit-identical to the unsharded paths.
  /// Fan-out bookkeeping lands in ShardStats only; the report-visible probe
  /// counters (cache hits/misses, overlay probes) advance exactly as the
  /// unsharded run's do, and parallel_probe_batches stays untouched.
  void ShardedProbeCosts(std::span<const std::size_t> indices,
                         std::span<Mbps> out) {
    NU_EXPECTS(out.size() >= indices.size());
    const auto start = ProbeClock::now();
    const std::size_t shards = shard_rt_->shard_count();
    metrics::ShardStats& sstats = shard_rt_->stats();
    // Prime the memoized state-bytes sample BEFORE any plan runs: the
    // network's ApproxStateBytes includes the shared path registry, which
    // planning grows, and the sequential path samples it at the round's
    // first miss — before that miss's plan.
    (void)StateBytes();

    std::vector<char> is_hit(indices.size(), 0);
    std::vector<Mbps> hit_cost(indices.size(), 0.0);
    // Miss slots grouped by home shard; within a shard, slots ascend, so a
    // task's seq numbers follow candidate order.
    std::vector<std::vector<std::size_t>> shard_slots(shards);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const update::UpdateEvent& event = *queue_[indices[i]].event;
      if (const ProbeCacheEntry* entry = CacheLookup(event.id())) {
        is_hit[i] = 1;
        hit_cost[i] = entry->cost;
        continue;
      }
      shard_slots[shard_rt_->HomeShard(event)].push_back(i);
    }

    std::vector<update::EventPlan> plans(indices.size());
    std::vector<char> have_plan(indices.size(), 0);
    const std::uint64_t round = shard_rt_->NextMailboxRound();
    shard_rt_->mailbox().BeginRound(round);
    std::vector<double> busy(shards, 0.0);
    std::vector<std::future<void>> tasks;
    for (std::size_t s = 0; s < shards; ++s) {
      if (shard_slots[s].empty()) continue;
      ++sstats.probe_tasks;
      tasks.push_back(shard_rt_->pool().Submit([this, s, &shard_slots,
                                                &indices, &busy] {
        const auto task_start = ProbeClock::now();
        std::uint64_t seq = 0;
        for (std::size_t slot : shard_slots[s]) {
          ShardProbeResult res;
          res.slot = slot;
          res.plan = planner_.Plan(network_, *queue_[indices[slot]].event);
          res.cost = ProbedCost(res.plan, *queue_[indices[slot]].event);
          shard_rt_->mailbox().Post(s, seq++, std::move(res));
        }
        busy[s] = SecondsSince(task_start);
      }));
    }
    if (!tasks.empty()) ++sstats.probe_fanouts;
    for (std::future<void>& t : tasks) t.get();

    // Canonical drain: messages arrive sorted by (shard, seq) regardless of
    // worker interleaving; the slot index maps each back to its candidate.
    // The per-shard minima merged here feed the distributed-argmin
    // cross-check below.
    sched::ShardMinimum merged;
    auto drained = shard_rt_->mailbox().DrainRound(round);
    sstats.mailbox_messages += drained.size();
    for (auto& msg : drained) {
      sched::MergeShardMinimum(merged, indices[msg.payload.slot],
                               msg.payload.cost);
      plans[msg.payload.slot] = std::move(msg.payload.plan);
      have_plan[msg.payload.slot] = 1;
    }
    sstats.OnFanout(busy, SecondsSince(start));

    // Phase 2 (simulation thread, candidate order): identical bookkeeping
    // to sequential ProbeCost calls.
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const update::UpdateEvent& event = *queue_[indices[i]].event;
      ++cost_probes_;
      plan_time_ += cost_model_.ProbeTime(event.flow_count());
      probed_bits_[indices[i]] = 1;
      if (is_hit[i] != 0) {
        ++probe_rt_.stats.probe_cache_hits;
        out[i] = hit_cost[i];
        continue;
      }
      NU_CHECK(have_plan[i] != 0);
      ++probe_rt_.stats.overlay_probes;
      probe_rt_.stats.overlay_bytes_saved +=
          static_cast<double>(StateBytes());
      const Mbps cost = ProbedCost(plans[i], event);
      CacheStore(event.id(), cost, &plans[i]);
      out[i] = cost;
    }
    probe_rt_.stats.probe_wall_seconds += SecondsSince(start);

    // Distributed-argmin cross-check: folding the cache hits into the
    // mailbox-merged per-shard minimum must reproduce the scheduler's
    // global first-listed-wins strict-< scan. Candidate lists ascend (the
    // schedulers sort their samples), making the two tie-breaks coincide.
    if (std::is_sorted(indices.begin(), indices.end())) {
      for (std::size_t i = 0; i < indices.size(); ++i) {
        if (is_hit[i] != 0) {
          sched::MergeShardMinimum(merged, indices[i], out[i]);
        }
      }
      if (merged.valid) {
        // CheapestCandidate returns the winning candidate VALUE (a queue
        // position), directly comparable to the merged minimum's candidate.
        const std::size_t cheapest = sched::CheapestCandidate(
            indices, std::span<const Mbps>(out.data(), indices.size()));
        NU_CHECK(cheapest == merged.candidate);
        ++sstats.argmin_merges;
      }
    }
  }

  /// One full cost-probe plan with fast-path/legacy dispatch + stats.
  update::EventPlan FullProbePlan(const update::UpdateEvent& event) {
    if (probe_rt_.fast_path) {
      ++probe_rt_.stats.overlay_probes;
      probe_rt_.stats.overlay_bytes_saved +=
          static_cast<double>(StateBytes());
      return planner_.Plan(network_, event);
    }
    ++probe_rt_.stats.legacy_probe_copies;
    return planner_.PlanLegacyCopy(network_, event);
  }

  update::EventPlan ProbeOnOverlay(const net::NetworkView& scratch,
                                   const update::UpdateEvent& event) {
    ++probe_rt_.stats.overlay_probes;
    probe_rt_.stats.overlay_bytes_saved += static_cast<double>(StateBytes());
    return planner_.Plan(scratch, event);
  }

  update::EventPlan ProbeOnCopy(const update::UpdateEvent& event) {
    ++probe_rt_.stats.legacy_probe_copies;
    return planner_.PlanLegacyCopy(*scratch_copy_, event);
  }

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
    const auto it = probe_cache_.find(id.value());
    if (it == probe_cache_.end() ||
        it->second.epoch != network_.state_epoch()) {
      return nullptr;
    }
    return &it->second;
  }

  /// Stores a probe result (counted as a miss). `plan` is consumed when
  /// non-null; quick probes pass nullptr (cost-only entries never replay).
  void CacheStore(EventId id, Mbps cost, update::EventPlan* plan) {
    if (!probe_rt_.cache_enabled) return;
    ++probe_rt_.stats.probe_cache_misses;
    ProbeCacheEntry& entry = probe_cache_[id.value()];
    entry.epoch = network_.state_epoch();
    entry.cost = cost;
    entry.has_plan = plan != nullptr;
    entry.plan = plan != nullptr ? std::move(*plan) : update::EventPlan{};
  }

  /// Deep-copy footprint of the round network, memoized (the network is
  /// frozen while the round's probes run).
  [[nodiscard]] std::size_t StateBytes() {
    if (!state_bytes_.has_value()) state_bytes_ = network_.ApproxStateBytes();
    return *state_bytes_;
  }

  /// Lazily maintains a scratch state with `selected` events applied — an
  /// overlay on the fast path, a deep copy on the legacy baseline. P-LMTF
  /// grows `selected` by appending, so the applied prefix usually stays
  /// valid; any other shape triggers a rebuild.
  net::MutableNetwork& EnsureScratch(std::span<const std::size_t> selected) {
    const bool have_scratch =
        probe_rt_.fast_path ? scratch_overlay_.has_value()
                            : scratch_copy_.has_value();
    const bool prefix_ok =
        have_scratch && applied_.size() <= selected.size() &&
        std::equal(applied_.begin(), applied_.end(), selected.begin());
    if (!prefix_ok) {
      if (probe_rt_.fast_path) {
        scratch_overlay_.emplace(network_);
      } else {
        scratch_copy_ = network_;
      }
      applied_.clear();
    }
    net::MutableNetwork& scratch =
        probe_rt_.fast_path
            ? static_cast<net::MutableNetwork&>(*scratch_overlay_)
            : static_cast<net::MutableNetwork&>(*scratch_copy_);
    for (std::size_t i = applied_.size(); i < selected.size(); ++i) {
      planner_.Execute(scratch, *queue_[selected[i]].event,
                       /*legacy_migration=*/!probe_rt_.fast_path);
      applied_.push_back(selected[i]);
    }
    return scratch;
  }

  const net::Network& network_;
  const update::EventPlanner& planner_;
  const CostModel& cost_model_;
  std::span<const sched::QueuedEvent> queue_;
  Rng& rng_;

  Seconds plan_time_ = 0.0;
  std::size_t cost_probes_ = 0;
  std::size_t cofeasibility_probes_ = 0;
  /// Per-round probed flags, indexed by queue position (replaces the
  /// O(probes) linear scan the WasProbed lookup used to do).
  std::vector<char> probed_bits_;
  std::optional<net::NetworkOverlay> scratch_overlay_;
  std::optional<net::Network> scratch_copy_;
  std::vector<std::size_t> applied_;
  std::optional<std::size_t> state_bytes_;
  Mbps co_migration_allowance_ = 100.0;
  bool quick_cost_probes_ = false;
  sched::QueuePressure pressure_;
  ProbeRuntime& probe_rt_;
  ProbeCache& probe_cache_;
  /// Brownout ladder level the serve runtime pinned for this round (0 when
  /// serve mode is off).
  int degradation_level_ = 0;
  /// Non-null when the pod-sharded engine drives this round's batch probes.
  ShardRuntime* shard_rt_ = nullptr;
};

/// Events sorted by arrival time (stable on ties).
std::vector<const update::UpdateEvent*> SortedByArrival(
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

}  // namespace

Simulator::Simulator(const net::Network& initial,
                     const topo::PathProvider& paths, SimConfig config)
    : initial_(initial), paths_(paths), config_(config) {}

SimResult Simulator::Run(sched::Scheduler& scheduler,
                         std::span<const update::UpdateEvent> events) {
  return RunEventLoop(scheduler, events, /*resume=*/false);
}

SimResult Simulator::Resume(sched::Scheduler& scheduler,
                            std::span<const update::UpdateEvent> events) {
  return RunEventLoop(scheduler, events, /*resume=*/true);
}

SimResult Simulator::RunEventLoop(sched::Scheduler& scheduler,
                                  std::span<const update::UpdateEvent> events,
                                  const bool resume) {
  net::Network network = initial_;

  // Fault wiring. When faults are off the planner sees the raw provider and
  // the injector draws nothing, so a fixed-seed run is bit-identical with
  // and without this machinery. When on, planning/placement go through an
  // alive-paths view that re-filters whenever the topology epoch changes.
  const bool faults_on = config_.faults.enabled();
  // Backstop validation: a plan referencing nonexistent ids fails here with
  // a FaultPlanError naming the offending spec, never by misfiring mid-run.
  if (faults_on) config_.faults.plan.Validate(network.graph());

  // Grey-failure / reconciliation wiring (docs/model.md §16). The grey
  // model makes installed rules lie (acked-but-absent), straggle, or get
  // silently evicted; the reconciler is the periodic read-back pass that
  // detects and repairs the resulting intended-vs-applied drift. Both off
  // by default: a disabled dataplane model holds no divergence, draws
  // nothing, and adds no snapshot section, so fixed-seed runs are
  // bit-identical to a build without the subsystem. One RNG stream covers
  // injection AND repair, so reconciliation is a single deterministic draw
  // sequence.
  const bool grey_on = config_.faults.grey.enabled();
  if (grey_on) config_.faults.grey.Validate();
  const bool recon_on = config_.recon.enabled;
  const bool dataplane_on = grey_on || recon_on;
  net::DataplaneState dataplane;
  recon::Reconciler reconciler(config_.recon);
  Rng grey_rng(StreamSeed(config_.seed, RngStream::kGreyFailures));
  // kGreyApply/kRuleLoss entries currently in the timeline, and whether a
  // kReconcile tick is armed. Not serialized: both are recounted from the
  // restored timeline.
  std::size_t pending_grey = 0;
  bool reconcile_armed = false;

  const topo::PredicatePathProvider alive_paths(
      paths_,
      [&network, &reconciler, recon_on](const topo::Path& p) {
        if (!network.PathAlive(p)) return false;
        // Health deprioritization: paths through Degraded (or Quarantined)
        // switches leave candidate selection. Quarantined switches are
        // also down, but degradation alone must already steer planning.
        if (recon_on && reconciler.health().any_unusable()) {
          for (const NodeId node : p.nodes) {
            if (!reconciler.health().IsUsable(node)) return false;
          }
        }
        return true;
      },
      [&network, &reconciler] {
        return network.topology_epoch() + reconciler.health().epoch();
      });
  const topo::PathProvider& provider =
      faults_on || recon_on
          ? static_cast<const topo::PathProvider&>(alive_paths)
          : paths_;
  fault::FaultInjector injector(
      config_.faults, StreamSeed(config_.seed, RngStream::kFaultInjection));
  // Overload→cascade feedback: a LinkStressMonitor (guard/) watches link
  // utilization; the engine converts sustained overload into secondary
  // kCascadeFault occurrences, recorded in `dynamic_faults` (the run's
  // cascade-generated specs, parallel to the plan's static ones).
  fault::CascadeEngine cascade(config_.faults.cascade);
  std::vector<fault::FaultSpec> dynamic_faults;
  const std::size_t plan_spec_count = config_.faults.plan.specs().size();
  const std::span<const fault::SharedRiskGroup> srlg_groups{
      config_.faults.plan.groups()};

  const update::EventPlanner planner(provider, config_.migration_options,
                                     config_.path_selection);
  const CostModel& costs = config_.cost_model;
  metrics::Collector collector;
  Rng rng(config_.seed);
  SimResult result;

  // Probe fast-path wiring (docs/model.md §9). The cache persists across
  // rounds but is keyed by the network's state epoch, so any mutation
  // invalidates it wholesale; the pool exists only when parallelism is both
  // requested and applicable (full probes on the overlay fast path).
  ProbeRuntime probe_rt;
  probe_rt.fast_path = config_.probe_fast_path;
  probe_rt.cache_enabled = config_.probe_cost_cache && config_.probe_fast_path;
  std::unique_ptr<ThreadPool> probe_pool;
  if (config_.probe_parallelism > 1 && config_.probe_fast_path &&
      !config_.quick_cost_probes) {
    probe_pool = std::make_unique<ThreadPool>(config_.probe_parallelism);
    probe_rt.pool = probe_pool.get();
  }
  ProbeCache probe_cache;

  // Pod-sharded engine wiring (docs/model.md §15). The shard map partitions
  // the fabric per pod, the runtime owns the worker pool and the
  // inter-shard mailbox, and the coordinator stays the only thread that
  // mutates simulation state — so the sharded run is bit-identical to the
  // unsharded one at any thread count. Takes precedence over the flat
  // probe_parallelism pool when both are configured.
  std::optional<ShardRuntime> shard_rt;
  if (config_.shards >= 2) {
    const std::size_t threads =
        config_.shard_threads != 0
            ? config_.shard_threads
            : std::min<std::size_t>(config_.shards, 8);
    shard_rt.emplace(network.graph(), config_.shards, threads);
  }

  // Guard wiring. Like the fault machinery, a disabled guard draws nothing
  // and changes nothing: fixed-seed runs are bit-identical with and without
  // it. `lossy` marks the regimes where placed flows can disappear out from
  // under scheduled occurrences (fault kills, watchdog rollbacks), which
  // turns on the per-flow bookkeeping and stale-occurrence tolerance.
  const guard::GuardConfig& gcfg = config_.guard;
  const bool overload_on = gcfg.overload.enabled();
  const bool watchdog_on = gcfg.deadline.enabled();
  const bool audit_on = gcfg.auditor.enabled;
  const bool lossy = faults_on || watchdog_on;
  guard::Watchdog watchdog(gcfg.deadline);
  guard::Auditor auditor(gcfg.auditor);

  // Serve wiring. Like faults and the guard, a disabled serve layer keeps
  // no state and draws nothing, so fixed-seed runs are unchanged. Enabled,
  // the runtime gates admission, tracks health (brownout), and records the
  // SLO timeseries; `serve_rt.has_value()` IS the enabled check everywhere.
  std::optional<serve::ServeRuntime> serve_rt;
  if (config_.serve.enabled) serve_rt.emplace(config_.serve);

  const auto pending = SortedByArrival(events);
  std::size_t next_arrival = 0;

  std::vector<const update::UpdateEvent*> queue;
  std::unordered_map<EventId::rep_type, ActiveEvent> active;
  std::vector<EventId> active_order;
  // Requeue lookups (kRequeue carries only the EventId) and activation
  // generations for stale-occurrence detection.
  std::unordered_map<EventId::rep_type, const update::UpdateEvent*>
      event_by_id;
  for (const update::UpdateEvent* e : pending) {
    event_by_id.emplace(e->id().value(), e);
  }
  std::unordered_map<EventId::rep_type, std::uint64_t> activation_count;
  // Event-conservation buckets the auditor cross-checks: every arrived
  // event is queued, active, parked, completed, shed, or quarantined.
  std::size_t parked_count = 0;
  std::size_t completed_count = 0;
  std::size_t shed_count = 0;
  std::size_t quarantined_count = 0;
  TimelineQueue<Occurrence> timeline;
  Seconds now = 0.0;
  Seconds total_plan_time = 0.0;

  // Checkpoint wiring (docs/model.md §11). Disabled configs touch no files
  // and skip every hook, so fixed-seed runs are bit-identical to a build
  // without the subsystem. The journal is a determinism cross-check, not a
  // redo log: a resumed run re-executes from the restored snapshot and
  // verifies each regenerated operation bitwise against the journal.
  const ckpt::CheckpointConfig& ck = config_.checkpoint;
  const bool ckpt_on = ck.enabled();
  if (resume && !ckpt_on) {
    throw RecoveryError("Resume requires a checkpoint directory");
  }
  if (ckpt_on) NU_CHECK(ck.cadence >= 1);
  // Crash injection is one-shot per process: a resumed run ignores the
  // spec, otherwise it would crash at the same round forever.
  fault::CrashSpec crash = config_.faults.crash;
  if (resume) crash = fault::CrashSpec{};
  ckpt::JournalWriter wal;
  std::vector<ckpt::WalRecord> replay;  // journal records left to verify
  std::size_t replay_pos = 0;
  std::uint64_t wal_round = 0;       // round key of the current wal segment
  std::uint64_t wal_keep_bytes = 0;  // valid prefix of the replayed segment
  // Set when the restored snapshot sits exactly at a cadence point, so the
  // re-entered hook must not write (or count) a duplicate snapshot.
  bool skip_snapshot_once = false;
  std::uint64_t churn_draws = 0;  // TrafficGenerator::Next calls so far
  std::uint64_t snapshot_bytes_written = 0;
  double snapshot_wall_seconds = 0.0;

  /// Journals one committed operation. During recovery the regenerated
  /// record is verified bitwise against the journal instead of appended;
  /// when the journal runs out, the same segment switches to live appends
  /// at its valid-prefix length (dropping any torn tail for good).
  auto commit = [&](ckpt::WalOp op, std::uint64_t subject, double value) {
    if (!ckpt_on) return;
    const ckpt::WalRecord rec{op, subject, value};
    if (replay_pos < replay.size()) {
      const ckpt::WalRecord& expect = replay[replay_pos];
      if (!rec.BitwiseEquals(expect)) {
        throw RecoveryError(
            "replay divergence at record " + std::to_string(replay_pos) +
            ": journal has " + expect.DebugString() +
            ", re-execution produced " + rec.DebugString());
      }
      ++replay_pos;
      ++result.recovery.wal_records_replayed;
      collector.OnWalRecord();
      if (replay_pos == replay.size()) {
        wal.Open(ckpt::JournalPath(ck.dir, wal_round), wal_keep_bytes);
      }
      return;
    }
    collector.OnWalRecord();
    wal.Append(rec);
  };

  // Every scheduled incident enters the timeline up front; the plan is
  // already time-sorted, but the queue orders them anyway.
  if (faults_on) {
    const std::vector<fault::FaultSpec>& specs = config_.faults.plan.specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      timeline.Push(specs[i].time,
                    Occurrence{Occurrence::Kind::kFault, FlowId::invalid(),
                               EventId::invalid(), i, {}});
    }
  }

  // Background churn: existing background flows end after a residual
  // lifetime (stationarity: uniform fraction of the full duration) and are
  // replaced with fresh draws at departure time.
  std::unique_ptr<trace::TrafficGenerator> churn_gen;
  Rng churn_rng(StreamSeed(config_.seed, RngStream::kChurnTimers));
  if (config_.churn.enabled) {
    NU_CHECK(churn_factory_ != nullptr);
    churn_gen =
        churn_factory_(StreamSeed(config_.seed, RngStream::kChurnGenerator));
    for (FlowId fid : network.PlacedFlows()) {
      const flow::Flow& f = network.FlowOf(fid);
      if (f.origin != flow::FlowOrigin::kBackground) continue;
      timeline.Push(churn_rng.Uniform01() * f.duration,
                    Occurrence{Occurrence::Kind::kBackgroundDeparture, fid,
                               EventId::invalid(), 0, {}});
    }
  }

  auto spawn_background_replacement = [&] {
    for (std::size_t attempt = 0;
         attempt < config_.churn.replacement_attempts; ++attempt) {
      const trace::FlowSpec spec = churn_gen->Next();
      ++churn_draws;  // replayed to restore the generator from a snapshot
      const auto path = trace::FindRandomPathWithHeadroom(
          network, provider, spec.src, spec.dst, spec.demand,
          config_.churn.placement, churn_rng);
      if (!path.has_value()) continue;
      flow::Flow f;
      f.src = spec.src;
      f.dst = spec.dst;
      f.demand = spec.demand;
      f.duration = spec.duration;
      f.origin = flow::FlowOrigin::kBackground;
      const FlowId placed = network.Place(std::move(f), *path);
      timeline.Push(now + spec.duration,
                    Occurrence{Occurrence::Kind::kBackgroundDeparture, placed,
                               EventId::invalid(), 0, {}});
      return;
    }
  };

  /// Terminally sheds `e` (admission drop or requeue drop). The collector
  /// distinguishes kShed from kAborted by whether the event ever executed.
  /// `now` can sit kTimeEpsilon below the arrival being ingested, so clamp.
  auto shed = [&](const update::UpdateEvent& e) {
    const Seconds t = std::max(now, e.arrival_time());
    collector.OnShed(e.id(), t);
    commit(ckpt::WalOp::kShed, e.id().value(), t);
    ++shed_count;
  };

  /// Admission control: pushes `e` unless the bounded queue is full, in
  /// which case the configured policy picks a victim — possibly `e` itself
  /// (returns false). A disabled guard admits unconditionally.
  auto admit = [&](const update::UpdateEvent* e) -> bool {
    if (overload_on && queue.size() >= gcfg.overload.max_queue_length) {
      const std::optional<std::size_t> victim = guard::ChooseShedVictim(
          gcfg.overload, queue, *e, network, provider);
      if (!victim.has_value()) {
        // Either way the overload guard drops a serve-ADMITTED event (the
        // serve gates already passed it), so the serve ledger counts it as
        // a queue shed, not an admission rejection.
        if (serve_rt.has_value()) serve_rt->OnShedQueue(*e);
        shed(*e);
        return false;
      }
      if (serve_rt.has_value()) serve_rt->OnShedQueue(*queue[*victim]);
      shed(*queue[*victim]);
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(*victim));
    }
    queue.push_back(e);
    if (shard_rt.has_value() && shard_rt->SpansShards(*e)) {
      // Cross-pod update: some endpoint lives outside the home shard, so
      // its probe reads boundary-link state owned by another shard.
      ++shard_rt->stats().cross_shard_events;
    }
    collector.OnQueueDepth(queue.size());
    return true;
  };

  auto ingest_arrivals = [&] {
    while (next_arrival < pending.size() &&
           pending[next_arrival]->arrival_time() <= now + kTimeEpsilon) {
      const update::UpdateEvent* e = pending[next_arrival];
      collector.OnArrival(e->id(), e->arrival_time(), e->flow_count());
      commit(ckpt::WalOp::kArrival, e->id().value(), e->arrival_time());
      if (serve_rt.has_value()) {
        // Serve admission gates run BEFORE the overload guard: a rejected
        // arrival never competes for queue space. `now` can sit
        // kTimeEpsilon below the arrival being ingested, so clamp.
        serve_rt->OnArrival(*e);
        const serve::RejectReason reason =
            serve_rt->Admit(*e, std::max(now, e->arrival_time()));
        if (reason != serve::RejectReason::kNone) {
          shed(*e);
          ++next_arrival;
          continue;
        }
      }
      admit(e);
      ++next_arrival;
    }
  };

  /// Schedules an install batch starting at `start` with nominal rule-push
  /// latency `nominal_install`. With a healthy pipeline the flows become
  /// installed at start + nominal_install; each starts transmitting then and
  /// departs after its duration. Under the flaky model the batch is run
  /// through the injector: success stretches the latency (jitter + backoff
  /// waits), exhaustion schedules an abort instead — its placements roll
  /// back when the abort fires.
  auto schedule_batch = [&](ActiveEvent& ae, EventId id,
                            std::span<const FlowId> flows, Seconds start,
                            Seconds nominal_install) {
    ++ae.batches_in_flight;
    std::vector<FlowId> batch(flows.begin(), flows.end());
    Seconds install_end = start + nominal_install;
    if (faults_on) {
      const fault::InstallTrial trial =
          injector.SampleInstall(nominal_install, start);
      collector.OnInstallBatch(trial.attempts, !trial.success);
      if (!trial.success) {
        timeline.Push(start + trial.wasted_delay,
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
    timeline.Push(install_end,
                  Occurrence{Occurrence::Kind::kInstallDone, FlowId::invalid(),
                             id, 0, std::move(batch), ae.generation});
    for (FlowId fid : flows) {
      timeline.Push(install_end + network.FlowOf(fid).duration,
                    Occurrence{Occurrence::Kind::kDeparture, fid, id, 0, {}});
    }
  };

  /// Arms the next anti-entropy tick. At most one kReconcile occurrence is
  /// ever in flight; passes re-arm themselves while drift or in-flight
  /// grey applies remain, so the tick dies out with the work.
  auto arm_reconcile = [&](Seconds t) {
    if (!recon_on || reconcile_armed) return;
    reconcile_armed = true;
    timeline.Push(t + config_.recon.period,
                  Occurrence{Occurrence::Kind::kReconcile, FlowId::invalid(),
                             EventId::invalid(), 0, {}});
  };

  /// Schedules a deferred grey occurrence (straggler apply / rule loss);
  /// the target switch rides in fault_index.
  auto push_grey = [&](Occurrence::Kind kind, NodeId node, FlowId flow,
                       Seconds t) {
    ++pending_grey;
    timeline.Push(t, Occurrence{kind, flow, EventId::invalid(),
                                static_cast<std::size_t>(node.value()), {}});
  };

  /// Issues the dataplane rules of freshly installed event flows: one rule
  /// per switch on the flow's path, each drawn through the grey model. An
  /// ack-lie or straggler leaves the rule divergent (intended but not
  /// applied); a rule loss applies now and schedules the silent eviction.
  /// Background flows and migration reroutes of already-verified flows are
  /// modeled as reliable — the grey model targets the install pipeline of
  /// update events, where drift gates correctness.
  auto issue_rules = [&](std::span<const FlowId> flows, Seconds t) {
    if (!dataplane_on) return;
    recon::ReconStats& rs = reconciler.stats();
    for (const FlowId fid : flows) {
      if (lossy && !network.HasFlow(fid)) continue;  // killed mid-install
      const topo::Path& path = network.PathOf(fid);
      for (const NodeId node : path.nodes) {
        if (network.graph().node(node).role == topo::NodeRole::kHost) {
          continue;
        }
        ++rs.rules_issued;
        const fault::GreyOutcome out =
            fault::SampleGrey(config_.faults.grey, node, t, grey_rng);
        switch (out.kind) {
          case fault::GreyOutcome::Kind::kApplied:
            ++rs.rules_verified;
            break;
          case fault::GreyOutcome::Kind::kAckLie:
            dataplane.AddDivergence(node, fid, net::RuleFault::kAckLie, t);
            ++rs.ack_lies;
            arm_reconcile(t);
            break;
          case fault::GreyOutcome::Kind::kStraggler:
            dataplane.AddDivergence(node, fid, net::RuleFault::kStraggler, t);
            dataplane.SetPendingApply(node, fid, true);
            push_grey(Occurrence::Kind::kGreyApply, node, fid, t + out.delay);
            ++rs.stragglers;
            arm_reconcile(t);
            break;
          case fault::GreyOutcome::Kind::kRuleLoss:
            ++rs.rules_verified;  // applied now, evicted later
            push_grey(Occurrence::Kind::kRuleLoss, node, fid, t + out.delay);
            break;
        }
      }
    }
  };

  // Retries deferred flows of active events (activation order) against the
  // freed capacity. A retry is a cheap admission check; full migration
  // planning runs only every kMigrationRetryPeriod-th failure, so frequent
  // churn departures stay inexpensive. Stops at the first still-unplaceable
  // flow per event (head-of-line within the event).
  auto retry_deferred = [&] {
    for (EventId id : active_order) {
      ActiveEvent& ae = active.at(id.value());
      while (!ae.deferred.empty()) {
        const std::size_t flow_idx = ae.deferred.front();
        const flow::Flow& f = ae.event->flows()[flow_idx];
        Mbps migrated = 0.0;
        std::optional<FlowId> placed;
        if (const topo::Path* direct = net::FindFeasiblePathPtr(
                network, provider, f.src, f.dst, f.demand,
                config_.path_selection)) {
          placed = network.Place(f, *direct);
          total_plan_time += costs.plan_time_per_flow;
        } else if (++ae.retry_failures % kMigrationRetryPeriod == 0) {
          placed = planner.PlaceFlow(network, f, &migrated);
          total_plan_time += costs.plan_time_per_flow;
        }
        if (!placed.has_value()) break;
        ae.retry_failures = 0;
        if (lossy) ae.flow_index.emplace(placed->value(), flow_idx);
        collector.OnCost(id, migrated);
        commit(ckpt::WalOp::kMigration, id.value(), migrated);
        const FlowId placed_ids[] = {*placed};
        schedule_batch(ae, id, placed_ids, now + costs.MigrationTime(migrated),
                       costs.InstallTime(1));
        ae.deferred.pop_front();
      }
    }
  };

  /// One full audit pass over the live run state. The event-conservation
  /// buckets come straight from the loop's own counters; everything else
  /// the auditor recomputes from the network itself.
  auto run_audit = [&] {
    guard::QueueAccounting acct;
    acct.arrived = collector.records().size();
    acct.queued = queue.size();
    acct.active = active.size();
    acct.parked = parked_count;
    acct.completed = completed_count;
    acct.shed = shed_count;
    acct.quarantined = quarantined_count;
    acct.queue_capacity = gcfg.overload.max_queue_length;
    // Bounded-drift invariant (recon subsystem): a switch continuously at
    // drift past the configured pass budget without quarantine is a
    // liveness violation.
    guard::DriftAuditInput drift_input;
    const guard::DriftAuditInput* drift_ptr = nullptr;
    if (recon_on && config_.recon.max_passes_at_drift > 0) {
      drift_input.max_passes = config_.recon.max_passes_at_drift;
      for (const recon::DriftStreak& streak : reconciler.DriftStreaks()) {
        drift_input.entries.push_back({streak.node, streak.passes});
      }
      drift_ptr = &drift_input;
    }
    collector.OnAudit(auditor.Audit(
        network, acct, result.forced_placements,
        guard::AuditContext{result.rounds, network.topology_epoch()},
        drift_ptr));
  };
  std::size_t occurrences_since_audit = 0;
  bool audit_due = false;

  /// One anti-entropy pass (docs/model.md §16): prune stale divergence,
  /// read back every drifting switch, repair through the grey pipeline,
  /// fold switch health, quarantine perma-liars, and re-arm while work
  /// remains. Sharded runs fan the read-back out per shard through the
  /// deterministic mailbox; the canonical (shard, seq) drain re-sorted by
  /// switch id makes the observation list identical to the serial scan.
  auto run_reconcile = [&](Seconds t) {
    recon::Reconciler::Prune(network, dataplane);
    std::vector<recon::DriftObservation> drift;
    const std::vector<NodeId> drifting = dataplane.DriftingNodes();
    if (shard_rt.has_value() && drifting.size() >= 2) {
      metrics::ShardStats& sstats = shard_rt->stats();
      std::vector<std::vector<NodeId>> shard_nodes(shard_rt->shard_count());
      for (const NodeId node : drifting) {
        shard_nodes[shard_rt->map().ShardOf(node)].push_back(node);
      }
      const std::uint64_t round = shard_rt->NextMailboxRound();
      shard_rt->drift_mailbox().BeginRound(round);
      std::vector<std::future<void>> tasks;
      for (std::size_t s = 0; s < shard_nodes.size(); ++s) {
        if (shard_nodes[s].empty()) continue;
        ++sstats.recon_tasks;
        tasks.push_back(shard_rt->pool().Submit([&, s] {
          // Workers only read the (frozen) dataplane and post pure values;
          // the coordinator blocks on the round barrier below.
          std::uint64_t seq = 0;
          for (const NodeId node : shard_nodes[s]) {
            shard_rt->drift_mailbox().Post(
                s, seq++,
                recon::Reconciler::CollectNodeDrift(dataplane, node));
          }
        }));
      }
      ++sstats.recon_fanouts;
      for (std::future<void>& task : tasks) task.get();
      auto drained = shard_rt->drift_mailbox().DrainRound(round);
      sstats.mailbox_messages += drained.size();
      drift.reserve(drained.size());
      for (auto& msg : drained) drift.push_back(std::move(msg.payload));
      // Mailbox order is (shard, seq); the pass wants ascending switch id.
      std::sort(drift.begin(), drift.end(),
                [](const recon::DriftObservation& a,
                   const recon::DriftObservation& b) {
                  return a.node.value() < b.node.value();
                });
    } else {
      drift = recon::Reconciler::CollectDrift(dataplane);
    }
    const recon::PassResult pass =
        reconciler.Pass(drift, dataplane, config_.faults.grey, t, grey_rng);
    for (const recon::DeferredGrey& d : pass.deferred) {
      push_grey(d.kind == recon::DeferredGrey::Kind::kApply
                    ? Occurrence::Kind::kGreyApply
                    : Occurrence::Kind::kRuleLoss,
                d.node, d.flow, d.time);
    }
    for (const NodeId node : pass.quarantine) {
      // Quarantine-with-drain: the switch leaves service exactly like a
      // switch-down fault (victim sweep, WAL commit, audit trigger) via a
      // dynamic fault spec fired at `t`; its tracked divergence is dropped
      // — residual on a quarantined switch is excused by the explicit
      // quarantine.
      dataplane.DropNode(node);
      // Dynamic faults are counted at the firing site (the execution path
      // skips accounting for them, matching the cascade engine).
      collector.OnFault(/*link_fault=*/false);
      fault::FaultSpec down;
      down.time = t;
      down.kind = fault::FaultKind::kSwitchDown;
      down.node = node;
      timeline.Push(t, Occurrence{Occurrence::Kind::kCascadeFault,
                                  FlowId::invalid(), EventId::invalid(),
                                  dynamic_faults.size(), {}});
      dynamic_faults.push_back(down);
    }
    // Re-arm while anything still needs reconciling: a live run (rules are
    // still being issued), unresolved repairable drift, or in-flight grey
    // applies/evictions.
    const bool run_live = !active.empty() || !queue.empty() ||
                          parked_count > 0 || next_arrival < pending.size();
    if (run_live || dataplane.active_count() > 0 || pending_grey > 0) {
      arm_reconcile(t);
    }
  };

  /// Serializes the complete mid-run controller state at a round boundary.
  /// Field order IS the snapshot payload format — bump
  /// ckpt::kSnapshotVersion on any change. Unordered containers are written
  /// in ascending-key order (canonical bytes); active events in activation
  /// order; the timeline in canonical (time, seq) pop order.
  auto serialize_state = [&](BinWriter& w) {
    network.SaveState(w);
    SaveRngState(w, rng.GetState());
    SaveRngState(w, churn_rng.GetState());
    SaveRngState(w, injector.GetRngState());
    w.U64(churn_draws);
    collector.SaveState(w);
    watchdog.SaveState(w);
    w.U64(result.rounds);
    w.U64(result.cost_probes);
    w.U64(result.cofeasibility_probes);
    w.U64(result.forced_placements);
    w.U64(probe_rt.stats.probe_cache_hits);
    w.U64(probe_rt.stats.probe_cache_misses);
    w.U64(probe_rt.stats.exec_plan_reuses);
    w.U64(probe_rt.stats.overlay_probes);
    w.U64(probe_rt.stats.legacy_probe_copies);
    w.U64(probe_rt.stats.parallel_probe_batches);
    w.F64(probe_rt.stats.overlay_bytes_saved);
    w.F64(probe_rt.stats.probe_wall_seconds);
    w.U64(next_arrival);
    w.Size(queue.size());
    for (const update::UpdateEvent* e : queue) w.U64(e->id().value());
    w.Size(active_order.size());
    for (EventId id : active_order) {
      const ActiveEvent& ae = active.at(id.value());
      w.U64(id.value());
      w.U64(ae.installed);
      w.U64(ae.batches_in_flight);
      w.Size(ae.deferred.size());
      for (std::size_t idx : ae.deferred) w.U64(idx);
      w.U64(ae.retry_failures);
      w.U64(ae.generation);
      std::vector<FlowId::rep_type> placed;
      placed.reserve(ae.flow_index.size());
      for (const auto& [rep, _] : ae.flow_index) placed.push_back(rep);
      std::sort(placed.begin(), placed.end());
      w.Size(placed.size());
      for (FlowId::rep_type rep : placed) {
        w.U64(rep);
        w.U64(ae.flow_index.at(rep));
      }
      std::vector<FlowId::rep_type> installed(ae.installed_ids.begin(),
                                              ae.installed_ids.end());
      std::sort(installed.begin(), installed.end());
      w.Size(installed.size());
      for (FlowId::rep_type rep : installed) w.U64(rep);
      std::vector<std::size_t> recovering;
      recovering.reserve(ae.pending_recovery.size());
      for (const auto& [idx, _] : ae.pending_recovery) {
        recovering.push_back(idx);
      }
      std::sort(recovering.begin(), recovering.end());
      w.Size(recovering.size());
      for (std::size_t idx : recovering) {
        const ActiveEvent::PendingRecovery& pr = ae.pending_recovery.at(idx);
        w.U64(idx);
        w.F64(pr.time);
        w.Bool(pr.srlg);
      }
    }
    std::vector<EventId::rep_type> activated;
    activated.reserve(activation_count.size());
    for (const auto& [rep, _] : activation_count) activated.push_back(rep);
    std::sort(activated.begin(), activated.end());
    w.Size(activated.size());
    for (EventId::rep_type rep : activated) {
      w.U64(rep);
      w.U64(activation_count.at(rep));
    }
    w.U64(parked_count);
    w.U64(completed_count);
    w.U64(shed_count);
    w.U64(quarantined_count);
    const auto entries = timeline.SortedEntries();
    w.Size(entries.size());
    for (const auto& entry : entries) {
      w.F64(entry.time);
      w.U64(entry.seq);
      const Occurrence& occ = entry.payload;
      w.U8(static_cast<std::uint8_t>(occ.kind));
      w.U64(occ.flow.value());
      w.U64(occ.event.value());
      w.U64(occ.fault_index);
      w.Size(occ.flows.size());
      for (FlowId fid : occ.flows) w.U64(fid.value());
      w.U64(occ.generation);
    }
    w.U64(timeline.next_seq());
    w.F64(now);
    w.F64(total_plan_time);
    w.U64(occurrences_since_audit);
    w.Bool(audit_due);
    cascade.SaveState(w);
    // Dynamic (cascade-generated) fault specs: kCascadeFault occurrences in
    // the timeline index into this list, so it must survive recovery.
    w.Size(dynamic_faults.size());
    for (const fault::FaultSpec& spec : dynamic_faults) {
      w.F64(spec.time);
      w.U8(static_cast<std::uint8_t>(spec.kind));
      w.U64(spec.link.value());
      w.U64(spec.node.value());
      w.U64(spec.group);
    }
    // Serve section (format v4): present exactly when serve mode is on —
    // config decides, so a reader with the same SimConfig always agrees.
    if (serve_rt.has_value()) serve_rt->SaveState(w);
    // Shard section (format v5): present exactly when the sharded engine is
    // on. Logical counters only — thread count, busy seconds, and modeled
    // speedups are host measurements and never enter the payload, so
    // snapshot bytes are identical across thread counts. The partition
    // fingerprint pins the shard map the counters were taken under.
    if (shard_rt.has_value()) {
      const metrics::ShardStats& ss = shard_rt->stats();
      w.U64(shard_rt->map().Fingerprint());
      w.U64(static_cast<std::uint64_t>(ss.shards));
      w.U64(ss.probe_fanouts);
      w.U64(ss.probe_tasks);
      w.U64(ss.audit_fanouts);
      w.U64(ss.audit_tasks);
      w.U64(ss.mailbox_messages);
      w.U64(ss.cross_shard_events);
      w.U64(ss.argmin_merges);
      w.U64(ss.recon_fanouts);  // appended in format v6
      w.U64(ss.recon_tasks);
    }
    // Recon section (format v6): present exactly when the grey/recon
    // dataplane model is on — config decides, so reader and writer agree.
    // The armed-tick flag and the pending-grey count are NOT stored: both
    // are recounted from the restored timeline.
    if (dataplane_on) {
      dataplane.SaveState(w);
      reconciler.SaveState(w);
      SaveRngState(w, grey_rng.GetState());
    }
  };

  /// Mirror of serialize_state. Replaces every piece of loop state, so a
  /// partial restore followed by a fallback to an older snapshot is safe.
  /// Unknown ids and out-of-range enum values throw CorruptInput — the
  /// caller treats the snapshot as corrupt and falls back.
  auto restore_state = [&](BinReader& r) {
    auto event_ptr = [&](std::uint64_t rep) -> const update::UpdateEvent* {
      const auto it = event_by_id.find(rep);
      if (it == event_by_id.end()) {
        throw CorruptInput("unknown event id in snapshot");
      }
      return it->second;
    };
    network.LoadState(r);
    rng.SetState(LoadRngState(r));
    churn_rng.SetState(LoadRngState(r));
    injector.SetRngState(LoadRngState(r));
    churn_draws = r.U64();
    if (config_.churn.enabled) {
      // The generator's stream position is restored by replaying its draw
      // count against a freshly seeded instance.
      churn_gen =
        churn_factory_(StreamSeed(config_.seed, RngStream::kChurnGenerator));
      for (std::uint64_t i = 0; i < churn_draws; ++i) (void)churn_gen->Next();
    }
    collector.LoadState(r);
    watchdog.LoadState(r);
    result.rounds = static_cast<std::size_t>(r.U64());
    result.cost_probes = static_cast<std::size_t>(r.U64());
    result.cofeasibility_probes = static_cast<std::size_t>(r.U64());
    result.forced_placements = static_cast<std::size_t>(r.U64());
    probe_rt.stats.probe_cache_hits = static_cast<std::size_t>(r.U64());
    probe_rt.stats.probe_cache_misses = static_cast<std::size_t>(r.U64());
    probe_rt.stats.exec_plan_reuses = static_cast<std::size_t>(r.U64());
    probe_rt.stats.overlay_probes = static_cast<std::size_t>(r.U64());
    probe_rt.stats.legacy_probe_copies = static_cast<std::size_t>(r.U64());
    probe_rt.stats.parallel_probe_batches = static_cast<std::size_t>(r.U64());
    probe_rt.stats.overlay_bytes_saved = r.F64();
    probe_rt.stats.probe_wall_seconds = r.F64();
    next_arrival = static_cast<std::size_t>(r.U64());
    queue.clear();
    const std::size_t queue_size = r.Size();
    for (std::size_t i = 0; i < queue_size; ++i) {
      queue.push_back(event_ptr(r.U64()));
    }
    active.clear();
    active_order.clear();
    const std::size_t active_size = r.Size();
    for (std::size_t i = 0; i < active_size; ++i) {
      const EventId::rep_type id_rep = r.U64();
      ActiveEvent ae;
      ae.event = event_ptr(id_rep);
      ae.installed = static_cast<std::size_t>(r.U64());
      ae.batches_in_flight = static_cast<std::size_t>(r.U64());
      const std::size_t deferred_size = r.Size();
      for (std::size_t j = 0; j < deferred_size; ++j) {
        ae.deferred.push_back(static_cast<std::size_t>(r.U64()));
      }
      ae.retry_failures = static_cast<std::size_t>(r.U64());
      ae.generation = r.U64();
      const std::size_t index_size = r.Size();
      ae.flow_index.reserve(index_size);
      for (std::size_t j = 0; j < index_size; ++j) {
        const FlowId::rep_type rep = r.U64();
        ae.flow_index.emplace(rep, static_cast<std::size_t>(r.U64()));
      }
      const std::size_t installed_size = r.Size();
      ae.installed_ids.reserve(installed_size);
      for (std::size_t j = 0; j < installed_size; ++j) {
        ae.installed_ids.insert(r.U64());
      }
      const std::size_t recovery_size = r.Size();
      ae.pending_recovery.reserve(recovery_size);
      for (std::size_t j = 0; j < recovery_size; ++j) {
        const std::size_t idx = static_cast<std::size_t>(r.U64());
        ActiveEvent::PendingRecovery pr;
        pr.time = r.F64();
        pr.srlg = r.Bool();
        ae.pending_recovery.emplace(idx, pr);
      }
      active_order.push_back(EventId{id_rep});
      active.emplace(id_rep, std::move(ae));
    }
    activation_count.clear();
    const std::size_t activated_size = r.Size();
    activation_count.reserve(activated_size);
    for (std::size_t i = 0; i < activated_size; ++i) {
      const EventId::rep_type rep = r.U64();
      activation_count.emplace(rep, r.U64());
    }
    parked_count = static_cast<std::size_t>(r.U64());
    completed_count = static_cast<std::size_t>(r.U64());
    shed_count = static_cast<std::size_t>(r.U64());
    quarantined_count = static_cast<std::size_t>(r.U64());
    std::vector<TimelineQueue<Occurrence>::Entry> entries;
    const std::size_t entry_count = r.Size();
    entries.reserve(entry_count);
    pending_grey = 0;
    reconcile_armed = false;
    for (std::size_t i = 0; i < entry_count; ++i) {
      TimelineQueue<Occurrence>::Entry entry;
      entry.time = r.F64();
      entry.seq = r.U64();
      const std::uint8_t kind = r.U8();
      if (kind > static_cast<std::uint8_t>(Occurrence::Kind::kReconcile)) {
        throw CorruptInput("bad occurrence kind");
      }
      entry.payload.kind = static_cast<Occurrence::Kind>(kind);
      if (entry.payload.kind == Occurrence::Kind::kGreyApply ||
          entry.payload.kind == Occurrence::Kind::kRuleLoss) {
        ++pending_grey;
      }
      if (entry.payload.kind == Occurrence::Kind::kReconcile) {
        if (reconcile_armed) throw CorruptInput("duplicate reconcile tick");
        reconcile_armed = true;
      }
      entry.payload.flow = FlowId{r.U64()};
      entry.payload.event = EventId{r.U64()};
      entry.payload.fault_index = static_cast<std::size_t>(r.U64());
      const std::size_t flow_count = r.Size();
      entry.payload.flows.reserve(flow_count);
      for (std::size_t j = 0; j < flow_count; ++j) {
        entry.payload.flows.push_back(FlowId{r.U64()});
      }
      entry.payload.generation = r.U64();
      entries.push_back(std::move(entry));
    }
    const std::uint64_t next_seq = r.U64();
    timeline.Restore(std::move(entries), next_seq);
    now = r.F64();
    total_plan_time = r.F64();
    occurrences_since_audit = static_cast<std::size_t>(r.U64());
    audit_due = r.Bool();
    cascade.LoadState(r);
    dynamic_faults.clear();
    const std::size_t dynamic_count = r.Size();
    dynamic_faults.reserve(dynamic_count);
    for (std::size_t i = 0; i < dynamic_count; ++i) {
      fault::FaultSpec spec;
      spec.time = r.F64();
      const std::uint8_t kind = r.U8();
      if (kind > static_cast<std::uint8_t>(fault::FaultKind::kGroupUp)) {
        throw CorruptInput("bad fault kind");
      }
      spec.kind = static_cast<fault::FaultKind>(kind);
      spec.link = LinkId{static_cast<LinkId::rep_type>(r.U64())};
      spec.node = NodeId{static_cast<NodeId::rep_type>(r.U64())};
      spec.group = static_cast<std::size_t>(r.U64());
      dynamic_faults.push_back(spec);
    }
    if (serve_rt.has_value()) serve_rt->LoadState(r);
    if (shard_rt.has_value()) {
      metrics::ShardStats& ss = shard_rt->stats();
      if (r.U64() != shard_rt->map().Fingerprint()) {
        throw CorruptInput("shard map fingerprint mismatch");
      }
      if (r.U64() != static_cast<std::uint64_t>(ss.shards)) {
        throw CorruptInput("shard count mismatch");
      }
      ss.probe_fanouts = r.U64();
      ss.probe_tasks = r.U64();
      ss.audit_fanouts = r.U64();
      ss.audit_tasks = r.U64();
      ss.mailbox_messages = r.U64();
      ss.cross_shard_events = r.U64();
      ss.argmin_merges = r.U64();
      ss.recon_fanouts = r.U64();
      ss.recon_tasks = r.U64();
    }
    if (dataplane_on) {
      dataplane.LoadState(r);
      reconciler.LoadState(r);
      grey_rng.SetState(LoadRngState(r));
    }
  };

  /// Writes the snapshot for `round` and rotates the journal. The snapshot
  /// counter is bumped BEFORE serialization so the payload includes its own
  /// count — a restored run then reports the same total as an uninterrupted
  /// one without re-counting.
  auto take_snapshot = [&](std::uint64_t round) {
    NU_CHECK(replay_pos == replay.size());  // segments end at rotations
    const auto start = ProbeClock::now();
    collector.OnSnapshotTaken();
    BinWriter w;
    serialize_state(w);
    wal.Close();
    snapshot_bytes_written +=
        ckpt::WriteSnapshotFile(ckpt::SnapshotPath(ck.dir, round), w.buffer());
    wal_round = round;
    wal_keep_bytes = 0;
    wal.Open(ckpt::JournalPath(ck.dir, wal_round), 0);
    snapshot_wall_seconds += SecondsSince(start);
  };

  if (ckpt_on && !resume) {
    // Snapshot 0 precedes the first commit (arrivals are committed before
    // the first round), so every journal segment is fully covered by the
    // snapshot that opened it.
    std::filesystem::create_directories(ck.dir);
    take_snapshot(0);
  }
  if (resume) {
    const auto recovery_start = ProbeClock::now();
    const std::vector<std::uint64_t> snapshot_rounds =
        ckpt::ListSnapshotRounds(ck.dir);
    bool restored = false;
    for (const std::uint64_t snap_round : snapshot_rounds) {  // newest first
      const std::filesystem::path snap_path =
          ckpt::SnapshotPath(ck.dir, snap_round);
      try {
        const std::string payload = ckpt::ReadSnapshotFile(snap_path);
        BinReader r(payload);
        restore_state(r);
        r.ExpectEnd();
      } catch (const ckpt::SnapshotCorruption&) {
        ++result.recovery.snapshots_skipped;
        continue;
      } catch (const CorruptInput&) {
        ++result.recovery.snapshots_skipped;
        continue;
      }
      // Journal corruption is NOT a fallback case: an older snapshot would
      // silently skip the verification the journal exists to provide, so
      // JournalCorruption propagates to the caller.
      const ckpt::JournalContents contents =
          ckpt::ReadJournal(ckpt::JournalPath(ck.dir, snap_round));
      replay = contents.records;
      replay_pos = 0;
      wal_round = snap_round;
      wal_keep_bytes = contents.valid_bytes;
      skip_snapshot_once = snap_round > 0;
      result.recovery.recovered = true;
      result.recovery.snapshot_round = snap_round;
      result.recovery.snapshot_bytes = std::filesystem::file_size(snap_path);
      result.recovery.torn_bytes_truncated = contents.torn_bytes;
      restored = true;
      break;
    }
    if (!restored) {
      throw RecoveryError("no loadable snapshot in " + ck.dir + " (" +
                          std::to_string(snapshot_rounds.size()) +
                          " candidates)");
    }
    if (replay.empty()) {
      // Nothing to verify (crash happened right after a snapshot): open the
      // segment for live appends immediately.
      wal.Open(ckpt::JournalPath(ck.dir, wal_round), wal_keep_bytes);
    }
    result.recovery.recovery_wall_seconds = SecondsSince(recovery_start);
  }

  std::size_t loop_guard = 0;
  for (;;) {
    NU_CHECK(++loop_guard < 100'000'000);
    ingest_arrivals();

    // Drained: every event arrived and reached a terminal state. Parked
    // events still owe a requeue attempt. (Churn would keep the timeline
    // busy forever, so do not wait for it to empty.) A run with the
    // reconciler on additionally drains its dataplane drift: it ends only
    // once every non-abandoned divergence is repaired and every in-flight
    // grey apply/eviction has landed — zero unexcused residual, or
    // explicit abandonment/quarantine.
    if (active.empty() && queue.empty() && parked_count == 0 &&
        next_arrival >= pending.size() &&
        (!recon_on ||
         (dataplane.active_count() == 0 && pending_grey == 0))) {
      break;
    }

    if (active.empty() && !queue.empty()) {
      // --- Checkpoint hook (round entry) ---
      if (ckpt_on && result.rounds > 0 && result.rounds % ck.cadence == 0) {
        // The probe cache is cleared at EVERY cadence point — also when the
        // snapshot itself is skipped — so a recovered run (which necessarily
        // restarts with a cold cache) sees the same hit/miss sequence as an
        // uninterrupted one. Decisions never depend on the cache.
        probe_cache.clear();
        if (skip_snapshot_once) {
          skip_snapshot_once = false;
        } else {
          take_snapshot(result.rounds);
        }
      }
      if (crash.armed() && crash.point == fault::CrashPoint::kBeforeRound &&
          result.rounds + 1 == crash.at_round) {
        throw fault::ControllerCrash(crash.at_round, crash.point);
      }
      // --- Scheduling round ---
      std::vector<sched::QueuedEvent> view;
      view.reserve(queue.size());
      for (const update::UpdateEvent* e : queue) {
        view.push_back(sched::QueuedEvent{e});
      }
      sched::QueuePressure pressure{gcfg.overload.max_queue_length,
                                    queue.size(), shed_count};
      if (shard_rt.has_value()) {
        // Sharded admission view: the global pressure is the aggregate of
        // the per-shard sub-queue depths. The aggregate must reproduce the
        // flat queue length exactly — every queued event has exactly one
        // home shard — which the NU_CHECK in the aggregation asserts.
        std::vector<std::size_t> depths(shard_rt->shard_count(), 0);
        for (const update::UpdateEvent* e : queue) {
          ++depths[shard_rt->HomeShard(*e)];
        }
        pressure = guard::AggregateShardPressure(
            depths, gcfg.overload.max_queue_length, shed_count);
        NU_CHECK(pressure.length == queue.size());
      }
      RoundContext context(
          network, planner, costs, view, rng,
          config_.plmtf_co_migration_allowance, config_.quick_cost_probes,
          pressure, probe_rt, probe_cache,
          serve_rt.has_value() ? serve_rt->DegradationLevel() : 0,
          shard_rt.has_value() ? &*shard_rt : nullptr);
      const sched::Decision decision = scheduler.Decide(context);
      NU_CHECK(sched::IsValidDecision(decision, queue.size()));

      total_plan_time += context.plan_time();
      result.cost_probes += context.cost_probes();
      result.cofeasibility_probes += context.cofeasibility_probes();
      now += context.plan_time();

      RoundLogEntry log;
      log.decision_time = now;
      log.plan_time = context.plan_time();

      for (std::size_t index : decision.selected) {
        const update::UpdateEvent* event = queue[index];
        if (!context.WasProbed(index)) {
          // FIFO-style execution without a prior probe still pays for
          // computing the event's update plan.
          const Seconds t = costs.ProbeTime(event->flow_count());
          total_plan_time += t;
          now += t;
        }
        collector.OnExecutionStart(event->id(), now);
        commit(ckpt::WalOp::kExecute, event->id().value(), now);
        // A winner probed this round has a cached plan built against the
        // exact current state — replay it instead of re-planning. Place and
        // Reroute re-validate everything, so a stale plan would abort loudly
        // rather than corrupt state.
        update::ExecutionResult exec;
        ProbeCacheEntry* cached = nullptr;
        if (probe_rt.cache_enabled) {
          const auto it = probe_cache.find(event->id().value());
          if (it != probe_cache.end() &&
              it->second.epoch == network.state_epoch() &&
              it->second.has_plan) {
            cached = &it->second;
          }
        }
        if (cached != nullptr) {
          exec = planner.ExecuteWithPlan(network, *event,
                                         std::move(cached->plan));
          cached->has_plan = false;
          ++probe_rt.stats.exec_plan_reuses;
        } else {
          exec = planner.Execute(network, *event,
                                 /*legacy_migration=*/!probe_rt.fast_path);
        }
        collector.OnCost(event->id(), exec.plan.migrated_traffic);
        commit(ckpt::WalOp::kMigration, event->id().value(),
               exec.plan.migrated_traffic);

        ActiveEvent ae;
        ae.event = event;
        active_order.push_back(event->id());
        const auto [it, inserted] =
            active.emplace(event->id().value(), std::move(ae));
        NU_CHECK(inserted);
        if (lossy) {
          // placed_flows is parallel to the placeable actions, in order.
          std::size_t placed_i = 0;
          for (const update::FlowAction& action : exec.plan.actions) {
            if (!action.placeable) continue;
            it->second.flow_index.emplace(
                exec.placed_flows[placed_i].value(), action.flow_index);
            ++placed_i;
          }
        }
        if (watchdog_on) {
          // Each execution attempt runs under a fresh generation so the
          // watchdog (and any install occurrences it strands) can tell a
          // re-execution from the attempt it aborted.
          it->second.generation = ++activation_count[event->id().value()];
          timeline.Push(
              now + gcfg.deadline.DeadlineFor(event->flow_count()),
              Occurrence{Occurrence::Kind::kWatchdog, FlowId::invalid(),
                         event->id(), 0, {}, it->second.generation});
        }
        if (!exec.placed_flows.empty()) {
          schedule_batch(it->second, event->id(), exec.placed_flows,
                         now + costs.MigrationTime(exec.plan.migrated_traffic),
                         costs.InstallTime(exec.placed_flows.size()));
        }
        for (std::size_t deferred_index : exec.deferred_flows) {
          it->second.deferred.push_back(deferred_index);
          collector.OnDeferredFlow(event->id());
        }
        log.executed.push_back(event->id());

        if (crash.armed() && crash.point == fault::CrashPoint::kMidRound &&
            result.rounds + 1 == crash.at_round) {
          // Die after the round's first event committed its journal
          // records, leaving a deliberately torn record behind — the
          // kill -9-mid-write case the journal framing exists for.
          if (ckpt_on && wal.is_open()) {
            wal.AppendTorn(ckpt::WalRecord{ckpt::WalOp::kMigration,
                                           event->id().value(), -1.0});
          }
          throw fault::ControllerCrash(crash.at_round, crash.point);
        }
      }

      // Remove executed events from the queue (descending index).
      std::vector<std::size_t> sorted_selected = decision.selected;
      std::sort(sorted_selected.rbegin(), sorted_selected.rend());
      for (std::size_t index : sorted_selected) {
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
      }

      ++result.rounds;
      if (config_.keep_round_log) result.round_log.push_back(std::move(log));
      // Round boundaries are brownout observation points: plan time moved
      // the clock, and the queue just drained by the round's selection.
      if (serve_rt.has_value()) {
        serve_rt->Tick(network, now, queue.size(), active.size());
      }
      continue;
    }

    // --- Advance virtual time ---
    const bool have_arrival = next_arrival < pending.size();
    const bool have_occurrence = !timeline.empty();
    // Recon machinery in the timeline (the armed tick, pending grey
    // applies/evictions) never frees capacity, so it must not stop the
    // deadlock breaker below. With the reconciler off both counters are
    // zero and the condition degenerates to the original !have_occurrence.
    const std::size_t recon_entries =
        pending_grey + (reconcile_armed ? 1 : 0);
    if (!have_arrival && timeline.size() <= recon_entries) {
      // Deferred flows with nothing left to free capacity: break the
      // deadlock by force-placing them (reported, not hidden).
      bool any_deferred = false;
      for (EventId id : active_order) {
        ActiveEvent& ae = active.at(id.value());
        while (!ae.deferred.empty()) {
          any_deferred = true;
          const std::size_t flow_idx = ae.deferred.front();
          const flow::Flow& f = ae.event->flows()[flow_idx];
          // Prefer a surviving path; only when the fault state severed the
          // pair entirely does the forced placement fall back to the raw
          // provider (and get reported via forced_placements).
          const bool pair_alive = !provider.Paths(f.src, f.dst).empty();
          const topo::Path& path = net::LeastCongestedPath(
              network, pair_alive ? provider : paths_, f.src, f.dst, f.demand);
          const FlowId placed = network.ForcePlace(f, path);
          if (lossy) ae.flow_index.emplace(placed.value(), flow_idx);
          const FlowId placed_ids[] = {placed};
          schedule_batch(ae, id, placed_ids, now, costs.InstallTime(1));
          ae.deferred.pop_front();
          ++result.forced_placements;
        }
      }
      if (any_deferred) continue;
      // No deferred flows: the drain condition kept us alive for the
      // remaining recon entries — fall through and advance time over
      // them. An empty timeline here means the loop cannot make progress.
      NU_CHECK(have_occurrence);
    }

    Seconds next_time = std::numeric_limits<double>::infinity();
    if (have_arrival) {
      next_time = std::min(next_time, pending[next_arrival]->arrival_time());
    }
    if (have_occurrence) next_time = std::min(next_time, timeline.NextTime());
    now = std::max(now, next_time);

    bool departed = false;
    while (!timeline.empty() && timeline.NextTime() <= now + kTimeEpsilon) {
      const auto entry = timeline.Pop();
      const Occurrence& occ = entry.payload;
      ++occurrences_since_audit;
      if (occ.kind == Occurrence::Kind::kDeparture) {
        // A flow killed by a fault (or rolled back by the watchdog) has no
        // bandwidth left to release; its stale departure is a no-op (flow
        // ids are never reused).
        if (lossy && !network.HasFlow(occ.flow)) continue;
        network.Remove(occ.flow);
        if (dataplane_on) dataplane.DropFlow(occ.flow);
        departed = true;
        continue;
      }
      if (occ.kind == Occurrence::Kind::kBackgroundDeparture) {
        // Killed background flows are not replaced: the churn process only
        // replaces flows that ended naturally.
        if (faults_on && !network.HasFlow(occ.flow)) continue;
        network.Remove(occ.flow);
        spawn_background_replacement();
        departed = true;
        continue;
      }
      if (occ.kind == Occurrence::Kind::kWatchdog) {
        // Fires once per execution attempt. Stale when the watched
        // activation already completed, was aborted, or was superseded.
        const auto it = active.find(occ.event.value());
        if (it == active.end() || it->second.generation != occ.generation) {
          continue;
        }
        ActiveEvent& ae = it->second;
        collector.OnDeadlineMiss(occ.event);
        // Abort + roll back the whole attempt: every placement of this
        // activation is removed, returning its bandwidth. In-flight install
        // occurrences and departures become stale (generation mismatch /
        // missing flows) and are skipped when they fire. Removal runs in
        // ascending flow-id order: Remove() reshuffles per-link flow lists,
        // whose order is serialized state, and unordered_map iteration
        // order would differ between a live map and a restored one.
        std::vector<FlowId::rep_type> rollback;
        rollback.reserve(ae.flow_index.size());
        for (const auto& [fid_rep, _] : ae.flow_index) {
          rollback.push_back(fid_rep);
        }
        std::sort(rollback.begin(), rollback.end());
        for (FlowId::rep_type fid_rep : rollback) {
          const FlowId fid{fid_rep};
          if (network.HasFlow(fid)) network.Remove(fid);
          if (dataplane_on) dataplane.DropFlow(fid);
        }
        active.erase(it);
        active_order.erase(std::find(active_order.begin(),
                                     active_order.end(), occ.event));
        if (watchdog.RecordMiss(occ.event)) {
          // Poison: out of failure budget — quarantine instead of another
          // round of livelock.
          collector.OnQuarantined(occ.event, entry.time);
          if (serve_rt.has_value()) {
            serve_rt->OnQuarantined(*event_by_id.at(occ.event.value()));
          }
          commit(ckpt::WalOp::kQuarantine, occ.event.value(), entry.time);
          ++quarantined_count;
        } else {
          timeline.Push(entry.time + watchdog.RequeueDelay(occ.event),
                        Occurrence{Occurrence::Kind::kRequeue,
                                   FlowId::invalid(), occ.event, 0, {}});
          ++parked_count;
        }
        departed = true;  // the rollback freed capacity
        continue;
      }
      if (occ.kind == Occurrence::Kind::kRequeue) {
        // Backoff elapsed: the aborted event re-enters through admission
        // control (a full queue may shed it — then it terminates kAborted).
        --parked_count;
        if (admit(event_by_id.at(occ.event.value()))) {
          collector.OnRequeued(occ.event);
          commit(ckpt::WalOp::kRequeue, occ.event.value(), entry.time);
        }
        continue;
      }
      if (occ.kind == Occurrence::Kind::kGreyApply) {
        // A straggling (or repair-re-issued) rule finally lands. Stale if
        // the flow departed or the divergence was pruned meanwhile.
        NU_CHECK(pending_grey > 0);
        --pending_grey;
        const NodeId node{static_cast<NodeId::rep_type>(occ.fault_index)};
        if (const net::DivergentRule* rule = dataplane.Find(node, occ.flow)) {
          recon::ReconStats& rs = reconciler.stats();
          ++rs.rules_verified;
          if (rule->detected) {
            // The reconciler had seen this drift, so the landing closes a
            // repair and counts toward recovery latency.
            ++rs.repairs_succeeded;
            rs.repair_latency.Add(entry.time - rule->since);
          }
          dataplane.Resolve(node, occ.flow);
        }
        continue;
      }
      if (occ.kind == Occurrence::Kind::kRuleLoss) {
        // A switch silently evicts a rule it had applied. Only meaningful
        // while the flow still routes through the (alive) switch and the
        // rule is not already divergent for another reason.
        NU_CHECK(pending_grey > 0);
        --pending_grey;
        const NodeId node{static_cast<NodeId::rep_type>(occ.fault_index)};
        if (network.HasFlow(occ.flow) && network.NodeUp(node) &&
            !dataplane.IsDivergent(node, occ.flow)) {
          const topo::Path& path = network.PathOf(occ.flow);
          if (std::find(path.nodes.begin(), path.nodes.end(), node) !=
              path.nodes.end()) {
            dataplane.AddDivergence(node, occ.flow, net::RuleFault::kRuleLoss,
                                    entry.time);
            ++reconciler.stats().rules_lost;
            arm_reconcile(entry.time);
          }
        }
        continue;
      }
      if (occ.kind == Occurrence::Kind::kReconcile) {
        NU_CHECK(reconcile_armed);
        reconcile_armed = false;
        run_reconcile(entry.time);
        continue;
      }
      if (occ.kind == Occurrence::Kind::kFault ||
          occ.kind == Occurrence::Kind::kCascadeFault) {
        const bool is_cascade = occ.kind == Occurrence::Kind::kCascadeFault;
        const fault::FaultSpec& spec =
            is_cascade ? dynamic_faults[occ.fault_index]
                       : config_.faults.plan.specs()[occ.fault_index];
        const std::vector<FlowId> victims =
            fault::AffectedFlows(network, spec, srlg_groups);
        fault::ApplyFaultState(network, spec, srlg_groups);
        // Cascade faults share the kFault WAL op; their subject indices are
        // offset past the static plan so replay can tell the streams apart.
        commit(ckpt::WalOp::kFault,
               is_cascade ? plan_spec_count + occ.fault_index : occ.fault_index,
               entry.time);
        if (spec.IsDown() && !is_cascade) {
          // Cascade failures were counted when the engine fired them; a
          // primary incident (re)starts a cascade episode at depth 1.
          if (spec.IsGroupFault()) {
            collector.OnGroupFault();
          } else {
            collector.OnFault(spec.IsLinkFault());
          }
          cascade.OnPrimaryFault();
        }
        std::unordered_set<EventId::rep_type> replanned;
        for (FlowId victim : victims) {
          const EventId owner = network.FlowOf(victim).event;
          network.Remove(victim);
          if (dataplane_on) dataplane.DropFlow(victim);
          collector.OnFlowKilled();
          if (!owner.valid()) continue;  // background: killed outright
          const auto owner_it = active.find(owner.value());
          if (owner_it == active.end()) continue;  // event already complete
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
              flow_idx,
              ActiveEvent::PendingRecovery{entry.time, spec.IsGroupFault()});
          ae.deferred.push_back(flow_idx);
          if (replanned.insert(owner.value()).second) {
            collector.OnEventReplanned(owner);
          }
        }
        // Up-events restore capacity; down-events free the victims' shares
        // elsewhere on their old paths. Either way deferred flows may fit
        // now, so treat the fault like a departure.
        departed = true;
        audit_due = true;  // faults always trigger an audit pass
        continue;
      }
      if (occ.kind == Occurrence::Kind::kInstallAborted) {
        // Retries exhausted: roll the batch back (remove its placements)
        // and re-defer the flows for replanning.
        const auto it = active.find(occ.event.value());
        // A fault can kill every flow of an in-flight batch; replacements
        // may then complete the event before this occurrence fires. Such a
        // stale batch holds only dead flows — nothing to roll back. The
        // watchdog strands batches the same way (abort or quarantine).
        if (it == active.end()) {
          NU_CHECK(lossy);
          continue;
        }
        ActiveEvent& ae = it->second;
        if (ae.generation != occ.generation) {
          // Batch of a watchdog-aborted activation; its placements were
          // rolled back with the abort.
          NU_CHECK(watchdog_on);
          continue;
        }
        NU_CHECK(ae.batches_in_flight > 0);
        --ae.batches_in_flight;
        collector.OnInstallAborted(occ.event);
        for (FlowId fid : occ.flows) {
          if (!network.HasFlow(fid)) continue;  // a fault beat us to it
          const auto idx_it = ae.flow_index.find(fid.value());
          NU_CHECK(idx_it != ae.flow_index.end());
          const std::size_t flow_idx = idx_it->second;
          network.Remove(fid);
          ae.flow_index.erase(idx_it);
          ae.pending_recovery.emplace(
              flow_idx, ActiveEvent::PendingRecovery{entry.time, false});
          ae.deferred.push_back(flow_idx);
        }
        departed = true;  // freed capacity: worth retrying deferred flows
        continue;
      }
      // kInstallDone: the event's batch finished installing.
      const auto it = active.find(occ.event.value());
      // Stale batch of an already-terminated event (see kInstallAborted).
      if (it == active.end()) {
        NU_CHECK(lossy);
        continue;
      }
      ActiveEvent& ae = it->second;
      if (ae.generation != occ.generation) {
        NU_CHECK(watchdog_on);  // batch of a watchdog-aborted activation
        continue;
      }
      NU_CHECK(ae.batches_in_flight > 0);
      --ae.batches_in_flight;
      if (lossy) {
        for (FlowId fid : occ.flows) {
          if (!network.HasFlow(fid)) continue;  // killed mid-install
          ++ae.installed;
          ae.installed_ids.insert(fid.value());
          const auto idx_it = ae.flow_index.find(fid.value());
          NU_CHECK(idx_it != ae.flow_index.end());
          const auto rec = ae.pending_recovery.find(idx_it->second);
          if (rec != ae.pending_recovery.end()) {
            collector.OnRecovery(entry.time - rec->second.time,
                                 rec->second.srlg);
            ae.pending_recovery.erase(rec);
          }
        }
      } else {
        ae.installed += occ.flows.size();
      }
      // Freshly installed flows issue their dataplane rules through the
      // grey pipeline (no-op when the dataplane model is off). Install
      // COMPLETION is the controller's view — the switches ack every rule
      // — so grey divergence never delays the event; it surfaces as drift
      // the reconciler must repair.
      issue_rules(occ.flows, entry.time);
      if (ae.Complete()) {
        collector.OnCompletion(occ.event, entry.time);
        if (serve_rt.has_value()) {
          serve_rt->OnCompletion(*ae.event, entry.time);
        }
        commit(ckpt::WalOp::kComplete, occ.event.value(), entry.time);
        ++completed_count;
        active.erase(it);
        active_order.erase(std::find(active_order.begin(),
                                     active_order.end(), occ.event));
      }
    }
    if (departed) retry_deferred();
    if (config_.faults.cascade.enabled()) {
      // Sustained overload observed now becomes a secondary failure: the
      // tripped link goes down as a dynamic fault (and comes back after the
      // configured outage). Both specs are recorded so snapshots and the
      // kCascadeFault occurrences referencing them survive recovery.
      for (const fault::CascadeEvent& ce : cascade.Observe(network, now)) {
        collector.OnCascadeFailure(ce.depth);
        fault::FaultSpec down;
        down.time = now;
        down.kind = fault::FaultKind::kLinkDown;
        down.link = ce.link;
        timeline.Push(now, Occurrence{Occurrence::Kind::kCascadeFault,
                                      FlowId::invalid(), EventId::invalid(),
                                      dynamic_faults.size(), {}});
        dynamic_faults.push_back(down);
        if (config_.faults.cascade.outage > 0.0) {
          fault::FaultSpec up;
          up.time = now + config_.faults.cascade.outage;
          up.kind = fault::FaultKind::kLinkUp;
          up.link = ce.link;
          timeline.Push(up.time,
                        Occurrence{Occurrence::Kind::kCascadeFault,
                                   FlowId::invalid(), EventId::invalid(),
                                   dynamic_faults.size(), {}});
          dynamic_faults.push_back(up);
        }
      }
    }
    if (serve_rt.has_value()) {
      // Occurrence batches are the other brownout observation points: the
      // drain just moved the clock and may have completed events, fired
      // faults, or stressed links.
      serve_rt->Tick(network, now, queue.size(), active.size());
    }
    if (config_.validate_invariants) {
      NU_CHECK(network.CheckInvariants() || result.forced_placements > 0);
    }
    // Degradation ladder level 2+: optional cadence audits are suppressed
    // to shed audit work under overload; fault-triggered (audit_due) and
    // final audits always run.
    const bool suppress_cadence_audit =
        serve_rt.has_value() && serve_rt->SuppressOptionalAudits();
    if (audit_on &&
        (audit_due || (occurrences_since_audit >= gcfg.auditor.cadence &&
                       !suppress_cadence_audit))) {
      run_audit();
      occurrences_since_audit = 0;
      audit_due = false;
    }
  }

  // Final audit: acceptance is "zero violations at end of run", so the last
  // pass always runs regardless of where the cadence counter stands (and
  // regardless of brownout audit suppression).
  if (audit_on) run_audit();

  if (serve_rt.has_value()) {
    serve_rt->Finish(now, queue.size(), active.size());
    result.serve = serve_rt->BuildSummary();
    result.serve_timeseries_csv = serve_rt->TimeseriesCsv();
    result.serve_tenant_csv = serve_rt->TenantReportCsv();
  }

  NU_CHECK(collector.AllTerminal());
  NU_CHECK(!config_.validate_invariants || network.CheckInvariants() ||
           result.forced_placements > 0);
  // A finished run that still holds unverified journal records re-executed
  // FEWER operations than the crashed run committed — divergence.
  if (replay_pos < replay.size()) {
    throw RecoveryError("run finished with " +
                        std::to_string(replay.size() - replay_pos) +
                        " journal records left unverified; next is " +
                        replay[replay_pos].DebugString());
  }
  wal.Close();

  result.records = collector.records();
  result.fault_stats = collector.fault_stats();
  result.guard_stats = collector.guard_stats();
  result.violations = auditor.violations();
  collector.OnProbeStats(probe_rt.stats);
  result.probe_stats = collector.probe_stats();
  if (shard_rt.has_value()) result.shard_stats = shard_rt->stats();
  result.report = metrics::BuildReport(collector, total_plan_time,
                                       config_.tail_percentile);
  result.report.ckpt_recoveries = result.recovery.recovered ? 1 : 0;
  result.report.ckpt_wal_replayed =
      static_cast<std::size_t>(result.recovery.wal_records_replayed);
  result.report.ckpt_snapshot_bytes =
      static_cast<double>(snapshot_bytes_written);
  result.report.ckpt_snapshot_wall_seconds = snapshot_wall_seconds;
  result.report.ckpt_recovery_wall_seconds =
      result.recovery.recovery_wall_seconds;
  if (dataplane_on) {
    recon::ReconStats& rs = reconciler.stats();
    rs.residual_divergence = dataplane.total_count();
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
  return result;
}

SimResult Simulator::RunFlowLevel(
    std::span<const update::UpdateEvent> events) {
  net::Network network = initial_;
  const update::EventPlanner planner(paths_, config_.migration_options,
                                     config_.path_selection);
  const CostModel& costs = config_.cost_model;
  metrics::Collector collector;
  SimResult result;

  const auto pending = SortedByArrival(events);
  std::size_t next_arrival = 0;

  // Per-event dispatch state, in arrival order.
  struct EvState {
    const update::UpdateEvent* event = nullptr;
    std::size_t dispatched = 0;
    Seconds last_install_end = 0.0;
    bool started = false;
    std::size_t retry_failures = 0;
  };
  std::vector<EvState> arrived;

  struct FlowEnd {
    FlowId flow;
    bool background = false;
  };
  TimelineQueue<FlowEnd> departures;
  Seconds now = 0.0;
  Seconds total_plan_time = 0.0;
  std::size_t cursor = 0;  // round-robin over arrived events

  // Background churn (see Run for the model).
  std::unique_ptr<trace::TrafficGenerator> churn_gen;
  Rng churn_rng(StreamSeed(config_.seed, RngStream::kChurnTimers));
  if (config_.churn.enabled) {
    NU_CHECK(churn_factory_ != nullptr);
    churn_gen =
        churn_factory_(StreamSeed(config_.seed, RngStream::kChurnGenerator));
    for (FlowId fid : network.PlacedFlows()) {
      const flow::Flow& f = network.FlowOf(fid);
      if (f.origin != flow::FlowOrigin::kBackground) continue;
      departures.Push(churn_rng.Uniform01() * f.duration, FlowEnd{fid, true});
    }
  }

  auto spawn_background_replacement = [&] {
    for (std::size_t attempt = 0;
         attempt < config_.churn.replacement_attempts; ++attempt) {
      const trace::FlowSpec spec = churn_gen->Next();
      const auto path = trace::FindRandomPathWithHeadroom(
          network, paths_, spec.src, spec.dst, spec.demand,
          config_.churn.placement, churn_rng);
      if (!path.has_value()) continue;
      flow::Flow f;
      f.src = spec.src;
      f.dst = spec.dst;
      f.demand = spec.demand;
      f.duration = spec.duration;
      f.origin = flow::FlowOrigin::kBackground;
      const FlowId placed = network.Place(std::move(f), *path);
      departures.Push(now + spec.duration, FlowEnd{placed, true});
      return;
    }
  };

  auto ingest_arrivals = [&] {
    while (next_arrival < pending.size() &&
           pending[next_arrival]->arrival_time() <= now + kTimeEpsilon) {
      const update::UpdateEvent* e = pending[next_arrival];
      arrived.push_back(EvState{e});
      collector.OnArrival(e->id(), e->arrival_time(), e->flow_count());
      ++next_arrival;
    }
  };

  // Next event with an undispatched flow under round-robin interleaving, or
  // nullptr when everything arrived so far is fully dispatched.
  auto next_item = [&]() -> EvState* {
    for (std::size_t step = 0; step < arrived.size(); ++step) {
      EvState& state = arrived[(cursor + step) % arrived.size()];
      if (state.dispatched < state.event->flow_count()) {
        cursor = (cursor + step) % arrived.size();
        return &state;
      }
    }
    return nullptr;
  };

  auto process_departures_until = [&](Seconds t) {
    while (!departures.empty() && departures.NextTime() <= t + kTimeEpsilon) {
      const FlowEnd end = departures.Pop().payload;
      network.Remove(end.flow);
      if (end.background) spawn_background_replacement();
    }
  };

  // Installs one flow of `state` at the current time. Migration and rule
  // installation occupy the update pipeline serially (advancing `now`), so
  // one flow's update finishes before the next is dispatched. Records
  // completion when it was the event's last flow.
  auto install = [&](EvState& state, FlowId placed, Mbps migrated) {
    if (!state.started) {
      state.started = true;
      collector.OnExecutionStart(state.event->id(), now);
    }
    collector.OnCost(state.event->id(), migrated);
    now += costs.MigrationTime(migrated) + costs.InstallTime(1);
    state.last_install_end = std::max(state.last_install_end, now);
    departures.Push(now + network.FlowOf(placed).duration,
                    FlowEnd{placed, false});
    ++state.dispatched;
    if (state.dispatched == state.event->flow_count()) {
      collector.OnCompletion(state.event->id(), state.last_install_end);
    }
    cursor = (cursor + 1) % arrived.size();
  };

  std::size_t guard = 0;
  for (;;) {
    NU_CHECK(++guard < 100'000'000);
    ingest_arrivals();

    EvState* item = next_item();
    if (item == nullptr) {
      if (next_arrival >= pending.size()) break;  // all flows dispatched
      now = std::max(now, pending[next_arrival]->arrival_time());
      process_departures_until(now);
      continue;
    }

    // Dispatch one flow: planning this flow costs plan time. Migration and
    // installation then occupy the update pipeline serially (inside
    // `install`), exactly as they do within an event-level round — the
    // flow-level baseline differs only in its event-blind ordering.
    // Blocked retries use the cheap admission check; full migration planning
    // runs every kMigrationRetryPeriod-th failure (as in the event-level
    // retry path).
    const flow::Flow& f = item->event->flows()[item->dispatched];
    now += costs.plan_time_per_flow;
    total_plan_time += costs.plan_time_per_flow;
    process_departures_until(now);

    Mbps migrated = 0.0;
    std::optional<FlowId> placed;
    if (item->retry_failures == 0 ||
        item->retry_failures % kMigrationRetryPeriod == 0) {
      placed = planner.PlaceFlow(network, f, &migrated);
    } else if (const topo::Path* direct = net::FindFeasiblePathPtr(
                   network, paths_, f.src, f.dst, f.demand,
                   config_.path_selection)) {
      placed = network.Place(f, *direct);
    }
    if (placed.has_value()) {
      item->retry_failures = 0;
      install(*item, *placed, migrated);
      continue;
    }
    ++item->retry_failures;

    // Head-of-line blocking: the flow fits nowhere even with migration.
    // Wait for the next departure (or arrival) and retry the same flow.
    if (!departures.empty()) {
      now = std::max(now, departures.NextTime());
      process_departures_until(now);
      continue;
    }
    if (next_arrival < pending.size()) {
      now = std::max(now, pending[next_arrival]->arrival_time());
      continue;
    }
    // Nothing will ever free capacity: force-place (reported).
    const topo::Path& path =
        net::LeastCongestedPath(network, paths_, f.src, f.dst, f.demand);
    const FlowId forced = network.ForcePlace(f, path);
    ++result.forced_placements;
    install(*item, forced, 0.0);
  }

  NU_CHECK(collector.AllComplete());
  result.records = collector.records();
  result.report = metrics::BuildReport(collector, total_plan_time,
                                       config_.tail_percentile);
  return result;
}

}  // namespace nu::sim
