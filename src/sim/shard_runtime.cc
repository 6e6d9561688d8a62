#include "sim/shard_runtime.h"

#include <algorithm>

namespace nu::sim {

ShardRuntime::ShardRuntime(const topo::Graph& graph, std::size_t shards,
                           std::size_t threads)
    : map_(graph, shards),
      pool_(std::make_unique<ThreadPool>(
          threads != 0 ? threads : std::min<std::size_t>(shards, 8))) {
  stats_.enabled = true;
  stats_.shards = map_.shard_count();
  stats_.threads = pool_->worker_count();
}

void ShardRuntime::SaveState(BinWriter& w) const {
  w.U64(map_.Fingerprint());
  w.U64(static_cast<std::uint64_t>(stats_.shards));
  w.U64(stats_.probe_fanouts);
  w.U64(stats_.probe_tasks);
  w.U64(stats_.mailbox_messages);
  w.U64(stats_.cross_shard_events);
  w.U64(stats_.argmin_merges);
}

void ShardRuntime::LoadState(BinReader& r) {
  if (r.U64() != map_.Fingerprint()) {
    throw CorruptInput("shard map fingerprint mismatch");
  }
  if (r.U64() != static_cast<std::uint64_t>(stats_.shards)) {
    throw CorruptInput("shard count mismatch");
  }
  stats_.probe_fanouts = r.U64();
  stats_.probe_tasks = r.U64();
  stats_.mailbox_messages = r.U64();
  stats_.cross_shard_events = r.U64();
  stats_.argmin_merges = r.U64();
}

}  // namespace nu::sim
