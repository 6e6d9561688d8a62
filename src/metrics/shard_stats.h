// Per-shard execution counters for the sharded simulation engine. Two
// strictly separated groups:
//
//   * Logical counters (fan-outs, tasks, mailbox messages, cross-shard
//     events) — functions of the configuration and workload only. They are
//     identical across thread counts and machines, land in snapshots, and
//     the shard determinism test relies on that.
//   * Wall-clock measurements (busy seconds per shard, fan-out wall,
//     modeled critical-path seconds) — host-dependent. They never enter
//     snapshots, reports, or CSVs; bench_scale reads them to compute the
//     thread-count sweep.
//
// The modeled critical path: every fan-out measures each shard task's busy
// seconds; with T workers and the deterministic assignment shard s ->
// worker s % T, the fan-out's modeled makespan is the busiest worker's
// total. Accumulating that per fan-out for T in {1,2,4,8} yields the
// parallel-region time a T-core host would see, without requiring T
// physical cores to measure it — the serial remainder of the run is the
// same either way.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace nu::metrics {

/// Thread counts the modeled critical path is accumulated for.
inline constexpr std::array<std::size_t, 4> kShardModelThreads = {1, 2, 4, 8};

struct ShardStats {
  /// True when the run executed on the sharded engine (shards >= 2).
  bool enabled = false;
  std::size_t shards = 0;
  /// Worker threads the run actually used.
  std::size_t threads = 0;

  // --- Logical counters (deterministic; serialized in snapshots) ---
  /// Parallel probe batches routed through the shard runtime.
  std::uint64_t probe_fanouts = 0;
  /// Per-shard probe tasks dispatched (<= probe_fanouts * shards).
  std::uint64_t probe_tasks = 0;
  /// Audit fan-outs and their tasks. Always 0: audits run serially. Kept
  /// because snapshot v6's shard section and perfbench read them.
  std::uint64_t audit_fanouts = 0;
  std::uint64_t audit_tasks = 0;
  /// Messages posted through the inter-shard mailbox.
  std::uint64_t mailbox_messages = 0;
  /// Admitted events whose flows touch more than one shard (cross-pod).
  std::uint64_t cross_shard_events = 0;
  /// Distributed-argmin merges cross-checked against the global scan.
  std::uint64_t argmin_merges = 0;
  /// Reconcile read-back passes fanned out across shards.
  std::uint64_t recon_fanouts = 0;
  /// Per-shard drift read-back tasks dispatched.
  std::uint64_t recon_tasks = 0;

  // --- Wall-clock measurements (host-dependent; never serialized) ---
  /// Wall seconds spent inside parallel regions (coordinator view).
  double fanout_wall_seconds = 0.0;
  /// Sum of per-task busy seconds across all fan-outs.
  double fanout_busy_seconds = 0.0;
  /// Modeled parallel-region seconds for kShardModelThreads[i] workers.
  std::array<double, kShardModelThreads.size()> modeled_parallel_seconds{};
  /// Cumulative busy seconds per shard (size == shards when enabled).
  std::vector<double> per_shard_busy_seconds;

  /// Folds one fan-out's measurements in: `per_shard_seconds[s]` is shard
  /// s's task busy time (0.0 for shards with no task), `wall` the region's
  /// coordinator wall time.
  void OnFanout(std::span<const double> per_shard_seconds, double wall) {
    fanout_wall_seconds += wall;
    if (per_shard_busy_seconds.size() < per_shard_seconds.size()) {
      per_shard_busy_seconds.resize(per_shard_seconds.size(), 0.0);
    }
    for (std::size_t s = 0; s < per_shard_seconds.size(); ++s) {
      fanout_busy_seconds += per_shard_seconds[s];
      per_shard_busy_seconds[s] += per_shard_seconds[s];
    }
    for (std::size_t i = 0; i < kShardModelThreads.size(); ++i) {
      const std::size_t workers = kShardModelThreads[i];
      double busiest = 0.0;
      for (std::size_t w = 0; w < workers; ++w) {
        double total = 0.0;
        for (std::size_t s = w; s < per_shard_seconds.size(); s += workers) {
          total += per_shard_seconds[s];
        }
        busiest = std::max(busiest, total);
      }
      modeled_parallel_seconds[i] += busiest;
    }
  }
};

}  // namespace nu::metrics
