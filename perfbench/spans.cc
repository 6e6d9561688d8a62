#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_generation{0};

struct LocalSlot {
  std::uint64_t generation = 0;
  void* log = nullptr;
};
thread_local LocalSlot t_slot;

bool IsProbe(Layer layer) {
  return layer == Layer::kProbeCost || layer == Layer::kProbeCosts ||
         layer == Layer::kCoFeasible;
}

const char* SpanName(Layer layer) {
  switch (layer) {
    case Layer::kRun:
      return "sim.run";
    case Layer::kDecide:
      return "sched.decide";
    case Layer::kProbeCost:
      return "update.probe_cost";
    case Layer::kProbeCosts:
      return "update.probe_costs";
    case Layer::kCoFeasible:
      return "update.cofeasible";
    case Layer::kPaths:
      return "topo.paths";
    case Layer::kChurnDraw:
      return "trace.churn_draw";
  }
  return "?";
}

const char* Category(Layer layer) {
  switch (layer) {
    case Layer::kRun:
      return "sim";
    case Layer::kDecide:
      return "sched";
    case Layer::kProbeCost:
    case Layer::kProbeCosts:
    case Layer::kCoFeasible:
      return "update";
    case Layer::kPaths:
      return "topo";
    case Layer::kChurnDraw:
      return "trace";
  }
  return "?";
}

/// Forwards every SchedulingContext call to the simulator's context; the
/// probes additionally record a span. ProbeCosts forwards to the inner
/// batch form so the simulator's parallel and sharded probe paths still
/// run.
class TracedContext final : public nu::sched::SchedulingContext {
 public:
  TracedContext(nu::sched::SchedulingContext& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] std::span<const nu::sched::QueuedEvent> Queue()
      const override {
    return inner_.Queue();
  }
  nu::Mbps ProbeCost(std::size_t index) override {
    ScopedSpan span(&recorder_, Layer::kProbeCost);
    span.set_count(1);
    return inner_.ProbeCost(index);
  }
  void ProbeCosts(std::span<const std::size_t> indices,
                  std::span<nu::Mbps> out) override {
    ScopedSpan span(&recorder_, Layer::kProbeCosts);
    span.set_count(static_cast<std::uint32_t>(indices.size()));
    inner_.ProbeCosts(indices, out);
  }
  bool ProbeCoFeasible(std::span<const std::size_t> selected,
                       std::size_t index) override {
    ScopedSpan span(&recorder_, Layer::kCoFeasible);
    const bool ok = inner_.ProbeCoFeasible(selected, index);
    span.set_count(ok ? 1 : 0);
    return ok;
  }
  nu::Rng& rng() override { return inner_.rng(); }
  [[nodiscard]] nu::sched::QueuePressure Pressure() const override {
    return inner_.Pressure();
  }
  [[nodiscard]] int DegradationLevel() const override {
    return inner_.DegradationLevel();
  }

 private:
  nu::sched::SchedulingContext& inner_;
  SpanRecorder& recorder_;
};

}  // namespace

SpanRecorder::SpanRecorder()
    : generation_(g_generation.fetch_add(1) + 1), origin_(Clock::now()) {}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

SpanRecorder::ThreadLog& SpanRecorder::Local() {
  if (t_slot.generation != generation_) {
    auto log = std::make_unique<ThreadLog>();
    log->spans.reserve(1 << 12);
    std::lock_guard<std::mutex> lock(mutex_);
    log->thread = static_cast<std::uint32_t>(logs_.size());
    t_slot.generation = generation_;
    t_slot.log = log.get();
    logs_.push_back(std::move(log));
  }
  return *static_cast<ThreadLog*>(t_slot.log);
}

SpanRecorder::Open SpanRecorder::Begin(Layer layer) {
  ThreadLog& log = Local();
  Open open;
  open.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  open.parent = log.open.empty()
                    ? probe_parent_.load(std::memory_order_acquire)
                    : log.open.back();
  open.layer = layer;
  log.open.push_back(open.id);
  if (IsProbe(layer)) probe_parent_.store(open.id, std::memory_order_release);
  open.start_ns = NowNs();
  return open;
}

void SpanRecorder::End(const Open& open, std::uint32_t count) {
  const std::int64_t end = NowNs();
  ThreadLog& log = Local();
  if (IsProbe(open.layer)) probe_parent_.store(0, std::memory_order_release);
  log.open.pop_back();
  log.spans.push_back(Span{open.id, open.parent, log.thread, open.layer,
                           count, open.start_ns, end});
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& other) {
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    spans[l] += other.spans[l];
    total_ms[l] += other.total_ms[l];
    self_ms[l] += other.self_ms[l];
  }
  cost_probes += other.cost_probes;
  cofeasible_accepted += other.cofeasible_accepted;
  paths_in_decide += other.paths_in_decide;
  paths_in_decide_ms += other.paths_in_decide_ms;
  return *this;
}

LayerTotals Summarize(const std::vector<Span>& spans) {
  LayerTotals totals;
  std::uint32_t max_id = 0;
  for (const Span& s : spans) max_id = std::max(max_id, s.id);
  std::vector<const Span*> by_id(max_id + 1, nullptr);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      max_id + 1);
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0 && s.parent <= max_id) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (const Span& s : spans) {
    const auto l = static_cast<std::size_t>(s.layer);
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    // Self time: the span minus the union of its children's intervals.
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    ++totals.spans[l];
    totals.total_ms[l] += ms;
    totals.self_ms[l] += ms - static_cast<double>(covered) / 1e6;
    if (s.layer == Layer::kProbeCost || s.layer == Layer::kProbeCosts) {
      totals.cost_probes += s.count;
    } else if (s.layer == Layer::kCoFeasible) {
      totals.cofeasible_accepted += s.count;
    } else if (s.layer == Layer::kPaths) {
      for (std::uint32_t p = s.parent; p != 0 && by_id[p] != nullptr;
           p = by_id[p]->parent) {
        if (by_id[p]->layer == Layer::kDecide) {
          ++totals.paths_in_decide;
          totals.paths_in_decide_ms += ms;
          break;
        }
      }
    }
  }
  return totals;
}

void WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char line[256];
  bool first = true;
  for (const Span& s : spans) {
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u,\"count\":%u}}",
                  first ? "" : ",\n", SpanName(s.layer), Category(s.layer),
                  s.thread, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                  s.parent, s.count);
    out << line;
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

nu::sched::Decision MeasuredScheduler::Decide(
    nu::sched::SchedulingContext& context) {
  const Clock::time_point now = Clock::now();
  if (started_) {
    round_seconds_.push_back(
        std::chrono::duration<double>(now - last_).count());
  }
  started_ = true;
  last_ = now;
  if (recorder_ == nullptr) return inner_.Decide(context);
  ScopedSpan span(recorder_, Layer::kDecide);
  TracedContext traced(context, *recorder_);
  return inner_.Decide(traced);
}

void MeasuredScheduler::Finish(Clock::time_point end) {
  if (!started_) return;
  round_seconds_.push_back(
      std::chrono::duration<double>(end - last_).count());
  started_ = false;
}

}  // namespace perfbench
