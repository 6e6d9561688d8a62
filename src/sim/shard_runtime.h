// Shared infrastructure of one sharded simulation run (SimConfig::shards
// >= 2): the pod partition map, the worker pool the shard tasks run on,
// and the engine's counters.
//
// Execution model (docs/model.md §15): the coordinator (simulation thread)
// remains the single decision and mutation authority — LMTF's candidate
// sample is drawn from the one scheduler RNG stream and all network
// mutations, counters, and virtual-time accounting happen in candidate
// order on the coordinator, exactly as in an unsharded run. Shards
// contribute the heavy recompute: a round's probe misses are grouped by
// home shard (the shard of the event's first flow's source pod) and
// planned on workers, each task writing only its own result slots. The
// coordinator reads the slots after joining every task, so a sharded run
// is bit-identical to the unsharded path at any thread count. Audit passes
// and reconcile read-backs run serially on the coordinator: the memoized
// audit pass costs less than a fan-out (docs/model.md §8), and the
// read-back is a scan of the few drifting switches.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "common/thread_pool.h"
#include "metrics/shard_stats.h"
#include "topo/shard_map.h"
#include "update/update_event.h"

namespace nu::sim {

class ShardRuntime {
 public:
  /// Partitions `graph` into `shards` and spawns `threads` workers
  /// (0 = min(shards, 8)).
  ShardRuntime(const topo::Graph& graph, std::size_t shards,
               std::size_t threads);

  [[nodiscard]] const metrics::ShardStats& stats() const { return stats_; }

  /// Calls `work(j)` for every j < events.size() as one pool task per home
  /// shard (each task takes its events in ascending j) and returns once
  /// every task has finished. `work(j)` may write only state owned by slot
  /// j. Counts one probe fan-out and its wall time.
  void FanOut(std::span<const update::UpdateEvent* const> events,
              const std::function<void(std::size_t)>& work);

 private:
  /// Home shard of an update event: the shard of its first flow's source.
  /// (Events are generated host-to-host within the fabric, so the first
  /// source pins the pod that initiates the update.)
  [[nodiscard]] std::size_t HomeShard(const update::UpdateEvent& event) const {
    if (event.flows().empty()) return 0;
    return map_.ShardOf(event.flows().front().src);
  }

  topo::ShardMap map_;
  std::unique_ptr<ThreadPool> pool_;
  metrics::ShardStats stats_;
};

}  // namespace nu::sim
