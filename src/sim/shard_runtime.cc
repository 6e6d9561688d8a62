#include "sim/shard_runtime.h"

namespace nu::sim {

ShardRuntime::ShardRuntime(const topo::Graph& graph, std::size_t shards,
                           std::size_t threads)
    : map_(graph, shards),
      pool_(std::make_unique<ThreadPool>(threads == 0 ? 1 : threads)) {
  stats_.enabled = true;
  stats_.shards = map_.shard_count();
  stats_.threads = pool_->worker_count();
  stats_.per_shard_busy_seconds.assign(map_.shard_count(), 0.0);
}

}  // namespace nu::sim
