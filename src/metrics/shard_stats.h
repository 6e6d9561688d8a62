// Counters of the sharded simulation engine. Two strictly separated
// groups:
//
//   * The fan-out count — a function of the configuration and workload
//     only, identical across thread counts and machines.
//   * The fan-out wall time — host-dependent.
//
// Neither enters snapshots, reports, or CSVs: a sharded run writes the
// same snapshot bytes as an unsharded one, and a resumed process counts
// from 0. bench_scale and perfbench read these fields from
// SimResult::shard_stats.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nu::metrics {

struct ShardStats {
  /// True when the run executed on the sharded engine (shards >= 2).
  bool enabled = false;
  std::size_t shards = 0;
  /// Worker threads the run actually used.
  std::size_t threads = 0;

  /// Probe batches whose misses were planned on the worker pool.
  std::uint64_t probe_fanouts = 0;
  /// Audit and reconcile read-back fan-outs. Always 0: both run serially
  /// on the coordinator. Kept because perfbench reads them.
  std::uint64_t audit_fanouts = 0;
  std::uint64_t recon_fanouts = 0;

  /// Wall seconds spent inside parallel regions (coordinator view).
  double fanout_wall_seconds = 0.0;
};

}  // namespace nu::metrics
