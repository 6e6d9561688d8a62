// Minimal fixed-size worker pool for read-only what-if probes. Tasks are
// submitted as callables and joined through std::future; the pool makes no
// ordering guarantees, so callers that need determinism must collect results
// by index and do all shared-state bookkeeping on the submitting thread
// (see sim::ShardRuntime::FanOut).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace nu {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least one).
  explicit ThreadPool(std::size_t workers);

  /// Drains nothing: outstanding tasks finish, queued tasks still run, then
  /// workers exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task = std::move(task)] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace nu
