// Shared infrastructure of one sharded simulation run (SimConfig::shards
// >= 2): the pod partition map, the worker pool the shard tasks run on,
// the inter-shard mailbox carrying probe results back to the coordinator,
// and the per-shard counters.
//
// Execution model (docs/model.md §15): the coordinator (simulation thread)
// remains the single decision and mutation authority — LMTF's candidate
// sample is drawn from the one scheduler RNG stream and all network
// mutations, counters, and virtual-time accounting happen in candidate
// order on the coordinator, exactly as in an unsharded run. Shards
// contribute the heavy recompute: each round's candidate probes are routed
// to their home shards (the shard of the event's first flow's source pod)
// and planned on workers. Because workers only produce pure values that the
// coordinator consumes in the mailbox's canonical (round, shard, seq)
// order, a sharded run is bit-identical to the unsharded path at any
// thread count. Audit passes and reconcile read-backs run serially on the
// coordinator: the memoized audit pass costs less than a fan-out
// (docs/model.md §8), and the read-back is a scan of the few drifting
// switches.
#pragma once

#include <cstdint>
#include <memory>

#include "common/binio.h"
#include "common/thread_pool.h"
#include "metrics/shard_stats.h"
#include "sim/mailbox.h"
#include "topo/shard_map.h"
#include "update/planner.h"
#include "update/update_event.h"

namespace nu::sim {

/// One candidate's probe result, posted by its home shard's task.
struct ShardProbeResult {
  /// Index into the batch's candidate list (restores candidate order).
  std::size_t slot = 0;
  /// ProbedCost of the plan (for the distributed-argmin cross-check).
  Mbps cost = 0.0;
  update::EventPlan plan;
};

class ShardRuntime {
 public:
  /// Partitions `graph` into `shards` and spawns `threads` workers
  /// (0 = min(shards, 8)).
  ShardRuntime(const topo::Graph& graph, std::size_t shards,
               std::size_t threads);

  [[nodiscard]] const topo::ShardMap& map() const { return map_; }
  [[nodiscard]] ThreadPool& pool() { return *pool_; }
  [[nodiscard]] std::size_t shard_count() const { return map_.shard_count(); }
  [[nodiscard]] metrics::ShardStats& stats() { return stats_; }

  /// Snapshot section: the partition fingerprint and the logical counters
  /// (never thread count or wall time, so the bytes are identical across
  /// thread counts). Another partition's section throws CorruptInput.
  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);
  [[nodiscard]] ShardMailbox<ShardProbeResult>& mailbox() { return mailbox_; }

  /// Monotonic mailbox round ids (one per probe fan-out).
  [[nodiscard]] std::uint64_t NextMailboxRound() { return next_round_++; }

  /// Home shard of an update event: the shard of its first flow's source.
  /// (Events are generated host-to-host within the fabric, so the first
  /// source pins the pod that initiates the update.)
  [[nodiscard]] std::size_t HomeShard(const update::UpdateEvent& event) const {
    if (event.flows().empty()) return 0;
    return map_.ShardOf(event.flows().front().src);
  }

  /// True when any of the event's flow endpoints lives outside the home
  /// shard (a cross-pod update).
  [[nodiscard]] bool SpansShards(const update::UpdateEvent& event) const {
    const std::size_t home = HomeShard(event);
    for (const flow::Flow& f : event.flows()) {
      if (map_.ShardOf(f.src) != home || map_.ShardOf(f.dst) != home) {
        return true;
      }
    }
    return false;
  }

 private:
  topo::ShardMap map_;
  std::unique_ptr<ThreadPool> pool_;
  metrics::ShardStats stats_;
  ShardMailbox<ShardProbeResult> mailbox_;
  std::uint64_t next_round_ = 0;
};

}  // namespace nu::sim
