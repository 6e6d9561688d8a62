// Per-shard execution counters for the sharded simulation engine. Two
// strictly separated groups:
//
//   * Logical counters (fan-outs, tasks, mailbox messages, cross-shard
//     events) — functions of the configuration and workload only. They are
//     identical across thread counts and machines, land in snapshots, and
//     the shard determinism test relies on that.
//   * The fan-out wall time — host-dependent. It never enters snapshots,
//     reports, or CSVs; bench_scale measures thread-count scaling end to
//     end instead.
#pragma once

#include <cstdint>

namespace nu::metrics {

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
  /// Audit and reconcile read-back fan-outs. Always 0: both run serially
  /// on the coordinator. Kept (and not serialized) because perfbench reads
  /// them.
  std::uint64_t audit_fanouts = 0;
  std::uint64_t recon_fanouts = 0;
  /// Messages posted through the inter-shard mailbox.
  std::uint64_t mailbox_messages = 0;
  /// Admitted events whose flows touch more than one shard (cross-pod).
  std::uint64_t cross_shard_events = 0;
  /// Distributed-argmin merges cross-checked against the global scan.
  std::uint64_t argmin_merges = 0;

  // --- Wall-clock measurement (host-dependent; never serialized) ---
  /// Wall seconds spent inside parallel regions (coordinator view).
  double fanout_wall_seconds = 0.0;
};

}  // namespace nu::metrics
