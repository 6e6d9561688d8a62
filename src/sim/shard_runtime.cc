#include "sim/shard_runtime.h"

#include <algorithm>
#include <future>
#include <vector>

#include "sim/run_state.h"

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

void ShardRuntime::FanOut(std::span<const update::UpdateEvent* const> events,
                          const std::function<void(std::size_t)>& work) {
  const auto start = WallClock::now();
  std::vector<std::vector<std::size_t>> by_shard(map_.shard_count());
  for (std::size_t j = 0; j < events.size(); ++j) {
    by_shard[HomeShard(*events[j])].push_back(j);
  }
  std::vector<std::future<void>> tasks;
  for (const std::vector<std::size_t>& slots : by_shard) {
    if (slots.empty()) continue;
    tasks.push_back(pool_->Submit([&work, &slots] {
      for (const std::size_t j : slots) work(j);
    }));
  }
  // Join every task before get() can rethrow: a task must not outlive the
  // slot lists it reads.
  for (std::future<void>& task : tasks) task.wait();
  for (std::future<void>& task : tasks) task.get();
  ++stats_.probe_fanouts;
  stats_.fanout_wall_seconds += SecondsSince(start);
}

}  // namespace nu::sim
