#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/text.h"
#include "sched/factory.h"

namespace nu::sched {
namespace {

/// Scripted context: costs and co-feasibility come from tables, so scheduler
/// logic is tested in isolation from the network machinery.
class FakeContext final : public SchedulingContext {
 public:
  FakeContext(std::vector<Mbps> costs, std::uint64_t seed = 1)
      : costs_(std::move(costs)), rng_(seed) {
    for (std::size_t i = 0; i < costs_.size(); ++i) {
      queue_.push_back(QueuedEvent{nullptr});
    }
  }

  /// Variant with real events (schedulers that read flow counts need them).
  FakeContext(std::vector<Mbps> costs,
              const std::vector<update::UpdateEvent>& events,
              std::uint64_t seed = 1)
      : costs_(std::move(costs)), rng_(seed) {
    for (const update::UpdateEvent& e : events) {
      queue_.push_back(QueuedEvent{&e});
    }
  }

  void SetCoFeasible(std::size_t index, bool value) {
    co_feasible_[index] = value;
  }

  [[nodiscard]] std::span<const QueuedEvent> Queue() const override {
    return queue_;
  }

  Mbps ProbeCost(std::size_t index) override {
    ++cost_probes_;
    probed_.push_back(index);
    return costs_.at(index);
  }

  bool ProbeCoFeasible(std::span<const std::size_t> /*selected*/,
                       std::size_t index) override {
    ++cofeasibility_probes_;
    const auto it = co_feasible_.find(index);
    return it != co_feasible_.end() && it->second;
  }

  Rng& rng() override { return rng_; }

  std::size_t cost_probes_ = 0;
  std::size_t cofeasibility_probes_ = 0;
  std::vector<std::size_t> probed_;

 private:
  std::vector<Mbps> costs_;
  std::vector<QueuedEvent> queue_;
  std::map<std::size_t, bool> co_feasible_;
  Rng rng_;
};

TEST(FifoSchedulerTest, AlwaysPicksHeadWithoutProbing) {
  FifoScheduler fifo;
  FakeContext ctx({50.0, 1.0, 2.0});
  const Decision d = fifo.Decide(ctx);
  ASSERT_EQ(d.selected.size(), 1u);
  EXPECT_EQ(d.selected[0], 0u);
  EXPECT_EQ(ctx.cost_probes_, 0u);
}

TEST(ReorderSchedulerTest, ProbesEverythingPicksCheapest) {
  ReorderScheduler reorder;
  FakeContext ctx({50.0, 7.0, 3.0, 9.0});
  const Decision d = reorder.Decide(ctx);
  ASSERT_EQ(d.selected.size(), 1u);
  EXPECT_EQ(d.selected[0], 2u);
  EXPECT_EQ(ctx.cost_probes_, 4u);
}

TEST(ReorderSchedulerTest, TieGoesToEarlierArrival) {
  ReorderScheduler reorder;
  FakeContext ctx({5.0, 5.0, 5.0});
  const Decision d = reorder.Decide(ctx);
  EXPECT_EQ(d.selected[0], 0u);
}

TEST(LmtfSchedulerTest, SingleEventQueueNoSampling) {
  LmtfScheduler lmtf(LmtfConfig{.alpha = 4});
  FakeContext ctx({42.0});
  const Decision d = lmtf.Decide(ctx);
  ASSERT_EQ(d.selected.size(), 1u);
  EXPECT_EQ(d.selected[0], 0u);
  EXPECT_EQ(ctx.cost_probes_, 1u);  // head only
}

TEST(LmtfSchedulerTest, ProbesAlphaPlusOne) {
  LmtfScheduler lmtf(LmtfConfig{.alpha = 4});
  FakeContext ctx({10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0});
  (void)lmtf.Decide(ctx);
  EXPECT_EQ(ctx.cost_probes_, 5u);
}

TEST(LmtfSchedulerTest, SamplesCappedByQueueSize) {
  LmtfScheduler lmtf(LmtfConfig{.alpha = 10});
  FakeContext ctx({1.0, 2.0, 3.0});
  (void)lmtf.Decide(ctx);
  EXPECT_EQ(ctx.cost_probes_, 3u);  // whole queue
}

TEST(LmtfSchedulerTest, PicksHeadWhenCheapest) {
  LmtfScheduler lmtf(LmtfConfig{.alpha = 4});
  FakeContext ctx({1.0, 10.0, 10.0, 10.0, 10.0});
  const Decision d = lmtf.Decide(ctx);
  EXPECT_EQ(d.selected[0], 0u);
}

TEST(LmtfSchedulerTest, BeatsHeadOfLineBlocking) {
  // Heavy head, everything else cheap: with alpha >= 1 and queue of 2,
  // LMTF must select the cheap event.
  LmtfScheduler lmtf(LmtfConfig{.alpha = 2});
  FakeContext ctx({1000.0, 1.0});
  const Decision d = lmtf.Decide(ctx);
  EXPECT_EQ(d.selected[0], 1u);
}

TEST(LmtfSchedulerTest, HeadAlwaysAmongCandidates) {
  LmtfScheduler lmtf(LmtfConfig{.alpha = 2});
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    FakeContext ctx({5.0, 100.0, 100.0, 100.0, 100.0, 100.0}, seed);
    const Decision d = lmtf.Decide(ctx);
    // Head is cheapest overall, so whatever was sampled, head wins.
    EXPECT_EQ(d.selected[0], 0u);
  }
}

TEST(LmtfSchedulerTest, SampledSetVariesAcrossRounds) {
  LmtfScheduler lmtf(LmtfConfig{.alpha = 1});
  FakeContext ctx({100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
  std::set<std::size_t> winners;
  for (int i = 0; i < 50; ++i) {
    const Decision d = lmtf.Decide(ctx);
    winners.insert(d.selected[0]);
  }
  // With one random sample per round, different cheap events win over time.
  EXPECT_GT(winners.size(), 2u);
}

TEST(PlmtfSchedulerTest, CoSchedulesFeasibleCandidates) {
  PlmtfScheduler plmtf(LmtfConfig{.alpha = 4});
  FakeContext ctx({10.0, 5.0, 7.0, 8.0, 9.0});  // queue of 5, all sampled
  ctx.SetCoFeasible(0, true);
  ctx.SetCoFeasible(2, true);
  ctx.SetCoFeasible(3, false);
  ctx.SetCoFeasible(4, false);
  const Decision d = plmtf.Decide(ctx);
  // Cheapest is index 1; co-feasible 0 and 2 join, in arrival order.
  ASSERT_EQ(d.selected.size(), 3u);
  EXPECT_EQ(d.selected[0], 1u);
  EXPECT_EQ(d.selected[1], 0u);
  EXPECT_EQ(d.selected[2], 2u);
}

TEST(PlmtfSchedulerTest, FallsBackToLmtfWhenNothingCoFeasible) {
  PlmtfScheduler plmtf(LmtfConfig{.alpha = 4});
  FakeContext ctx({10.0, 5.0, 7.0});
  const Decision d = plmtf.Decide(ctx);
  ASSERT_EQ(d.selected.size(), 1u);
  EXPECT_EQ(d.selected[0], 1u);
}

TEST(PlmtfSchedulerTest, DisplacedHeadGetsFirstOpportunisticChance) {
  PlmtfScheduler plmtf(LmtfConfig{.alpha = 4});
  FakeContext ctx({100.0, 1.0, 50.0, 50.0, 50.0});
  ctx.SetCoFeasible(0, true);  // the heavy displaced head can run too
  const Decision d = plmtf.Decide(ctx);
  ASSERT_GE(d.selected.size(), 2u);
  EXPECT_EQ(d.selected[0], 1u);
  EXPECT_EQ(d.selected[1], 0u);  // arrival order: head first
}

std::vector<update::UpdateEvent> EventsWithFlowCounts(
    const std::vector<std::size_t>& counts) {
  std::vector<update::UpdateEvent> events;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::vector<flow::Flow> flows;
    for (std::size_t j = 0; j < counts[i]; ++j) {
      flow::Flow f;
      f.src = NodeId{0};
      f.dst = NodeId{1};
      f.demand = 1.0;
      f.duration = 1.0;
      flows.push_back(f);
    }
    events.emplace_back(EventId{i}, 0.0, std::move(flows));
  }
  return events;
}

TEST(SjfSchedulerTest, PicksSmallestWithoutProbing) {
  SjfScheduler sjf(LmtfConfig{.alpha = 4});
  const auto events = EventsWithFlowCounts({10, 3, 7, 1, 5});
  FakeContext ctx({0, 0, 0, 0, 0}, events);
  const Decision d = sjf.Decide(ctx);
  ASSERT_EQ(d.selected.size(), 1u);
  EXPECT_EQ(d.selected[0], 3u);          // the 1-flow event
  EXPECT_EQ(ctx.cost_probes_, 0u);       // never probes costs
}

TEST(SjfSchedulerTest, SingleEventQueue) {
  SjfScheduler sjf(LmtfConfig{.alpha = 2});
  const auto events = EventsWithFlowCounts({4});
  FakeContext ctx({0}, events);
  EXPECT_EQ(sjf.Decide(ctx).selected[0], 0u);
}

TEST(SjfSchedulerTest, TieKeepsHead) {
  SjfScheduler sjf(LmtfConfig{.alpha = 4});
  const auto events = EventsWithFlowCounts({5, 5, 5});
  FakeContext ctx({0, 0, 0}, events);
  EXPECT_EQ(sjf.Decide(ctx).selected[0], 0u);
}

TEST(IsValidDecisionTest, Checks) {
  EXPECT_FALSE(IsValidDecision(Decision{}, 3));
  EXPECT_TRUE(IsValidDecision(Decision{.selected = {0}}, 3));
  EXPECT_FALSE(IsValidDecision(Decision{.selected = {3}}, 3));
  EXPECT_FALSE(IsValidDecision(Decision{.selected = {1, 1}}, 3));
  EXPECT_TRUE(IsValidDecision(Decision{.selected = {2, 0, 1}}, 3));
}

TEST(FactoryTest, MakesEveryKind) {
  for (const SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kReorder, SchedulerKind::kLmtf,
        SchedulerKind::kPlmtf, SchedulerKind::kSjf}) {
    const auto scheduler = MakeScheduler(kind);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_STREQ(scheduler->name(), ToString(kind));
  }
}

TEST(FactoryTest, ParsesNames) {
  EXPECT_EQ(ParseSchedulerKind("fifo"), SchedulerKind::kFifo);
  EXPECT_EQ(ParseSchedulerKind("lmtf"), SchedulerKind::kLmtf);
  EXPECT_EQ(ParseSchedulerKind("p-lmtf"), SchedulerKind::kPlmtf);
  EXPECT_EQ(ParseSchedulerKind("plmtf"), SchedulerKind::kPlmtf);
  EXPECT_EQ(ParseSchedulerKind("reorder"), SchedulerKind::kReorder);
  EXPECT_EQ(ParseSchedulerKind("sjf"), SchedulerKind::kSjf);
  EXPECT_EQ(ParseSchedulerKind("sjf-size"), SchedulerKind::kSjf);
}

TEST(FactoryTest, UnknownNameThrowsCorruptInput) {
  for (const char* name : {"bogus", "", "FIFO", "p_lmtf", " lmtf"}) {
    EXPECT_THROW(static_cast<void>(ParseSchedulerKind(name)), CorruptInput)
        << name;
  }
}

}  // namespace
}  // namespace nu::sched
