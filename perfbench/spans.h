// Span recording and the pass-through wrappers that produce the spans.
//
// Every layer is timed from outside the simulator: the wrappers below sit on
// the interfaces sim::Simulator calls out through (Scheduler::Decide, the
// SchedulingContext probes, PathProvider::Paths, the churn
// TrafficGenerator::Next) and forward every call unchanged, so a wrapped run
// makes exactly the decisions an unwrapped one makes.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/scheduler.h"
#include "topo/path_provider.h"
#include "trace/generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The span kinds, one per wrapped boundary. kRun is opened by the benchmark
/// around Simulator::Run and is the root of every span tree.
enum class Layer : std::uint8_t {
  kRun,         // sim: Simulator::Run
  kDecide,      // sched: Scheduler::Decide
  kProbeCost,   // update: SchedulingContext::ProbeCost
  kProbeCosts,  // update: SchedulingContext::ProbeCosts (batch)
  kCoFeasible,  // update: SchedulingContext::ProbeCoFeasible
  kPaths,       // topo: PathProvider::Paths
  kChurnDraw,   // trace: churn TrafficGenerator::Next
};
inline constexpr std::size_t kLayerCount = 7;

struct Span {
  std::uint32_t id = 0;
  /// 0 = no parent (the run span).
  std::uint32_t parent = 0;
  std::uint32_t thread = 0;
  Layer layer = Layer::kRun;
  /// Probes in a ProbeCost/ProbeCosts span; 1 when a co-feasibility probe
  /// accepted, else 0.
  std::uint32_t count = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe in-memory span store. Each thread appends to its own log, so
/// recording takes no lock after a thread's first span. A span opened on a
/// thread with no open span of its own (a probe or shard worker) takes the
/// enclosing probe span on the simulation thread as its parent.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  struct Open {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    Layer layer = Layer::kRun;
    std::int64_t start_ns = 0;
  };

  [[nodiscard]] Open Begin(Layer layer);
  void End(const Open& open, std::uint32_t count = 0);

  /// Every span recorded so far, all threads, in no particular order.
  [[nodiscard]] std::vector<Span> Collect() const;

 private:
  struct ThreadLog {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;  // stack of open span ids
  };
  ThreadLog& Local();
  [[nodiscard]] std::int64_t NowNs() const;

  const std::uint64_t generation_;
  const Clock::time_point origin_;
  std::atomic<std::uint32_t> next_id_{1};
  /// Innermost open probe span of the simulation thread (0 = none).
  std::atomic<std::uint32_t> probe_parent_{0};
  mutable std::mutex mutex_;  // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer)
      : recorder_(recorder),
        open_(recorder != nullptr ? recorder->Begin(layer)
                                  : SpanRecorder::Open{}) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(open_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint32_t count) { count_ = count; }

 private:
  SpanRecorder* recorder_;
  SpanRecorder::Open open_;
  std::uint32_t count_ = 0;
};

/// Per-layer totals of one traced run.
struct LayerTotals {
  std::array<std::size_t, kLayerCount> spans{};
  /// Inclusive span time and self time (span minus the union of its
  /// children's intervals), milliseconds. Spans of concurrent worker
  /// threads are summed, so on the sharded engine a layer's total can
  /// exceed the wall time it covered.
  std::array<double, kLayerCount> total_ms{};
  std::array<double, kLayerCount> self_ms{};
  /// Probes counted by the probe spans (a batch counts each candidate).
  std::size_t cost_probes = 0;
  std::size_t cofeasible_accepted = 0;
  /// Paths spans with a Decide span among their ancestors.
  std::size_t paths_in_decide = 0;
  double paths_in_decide_ms = 0.0;

  LayerTotals& operator+=(const LayerTotals& other);

  [[nodiscard]] double Total(Layer l) const {
    return total_ms[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] double Self(Layer l) const {
    return self_ms[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::size_t Count(Layer l) const {
    return spans[static_cast<std::size_t>(l)];
  }
};

[[nodiscard]] LayerTotals Summarize(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON (opens in Perfetto).
void WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

/// Scheduler wrapper: reads the clock once per Decide call to time rounds
/// and, with a recorder, also opens a Decide span and hands the inner
/// scheduler a traced SchedulingContext.
class MeasuredScheduler final : public nu::sched::Scheduler {
 public:
  MeasuredScheduler(nu::sched::Scheduler& inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] nu::sched::Decision Decide(
      nu::sched::SchedulingContext& context) override;
  [[nodiscard]] const char* name() const override { return inner_.name(); }

  /// Closes the last round at `end` (when Run returned).
  void Finish(Clock::time_point end);
  /// Wall seconds of each round, from one Decide call to the next.
  [[nodiscard]] const std::vector<double>& round_seconds() const {
    return round_seconds_;
  }

 private:
  nu::sched::Scheduler& inner_;
  SpanRecorder* recorder_;
  bool started_ = false;
  Clock::time_point last_{};
  std::vector<double> round_seconds_;
};

/// Path provider wrapper: one span per Paths call.
class TracedPathProvider final : public nu::topo::PathProvider {
 public:
  TracedPathProvider(const nu::topo::PathProvider& inner,
                     SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] const std::vector<nu::topo::Path>& Paths(
      nu::NodeId src, nu::NodeId dst) const override {
    ScopedSpan span(&recorder_, Layer::kPaths);
    return inner_.Paths(src, dst);
  }
  [[nodiscard]] const nu::topo::Graph& graph() const override {
    return inner_.graph();
  }

 private:
  const nu::topo::PathProvider& inner_;
  SpanRecorder& recorder_;
};

/// Churn generator wrapper: one span per replacement draw.
class TracedGenerator final : public nu::trace::TrafficGenerator {
 public:
  TracedGenerator(std::unique_ptr<nu::trace::TrafficGenerator> inner,
                  SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] nu::trace::FlowSpec Next() override {
    ScopedSpan span(&recorder_, Layer::kChurnDraw);
    return inner_->Next();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<nu::trace::TrafficGenerator> inner_;
  SpanRecorder& recorder_;
};

}  // namespace perfbench
