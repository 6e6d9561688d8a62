#include "metrics/report.h"

#include <gtest/gtest.h>

namespace nu::metrics {
namespace {

Collector MakeCollector() {
  Collector c;
  // Three events: ECTs 10, 20, 30; queuing delays 1, 2, 3.
  for (std::uint64_t i = 0; i < 3; ++i) {
    c.OnArrival(EventId{i}, 0.0, 2);
    c.OnExecutionStart(EventId{i}, static_cast<double>(i + 1));
    c.OnCost(EventId{i}, 10.0 * static_cast<double>(i));
    c.OnCompletion(EventId{i}, 10.0 * static_cast<double>(i + 1));
  }
  return c;
}

TEST(BuildReportTest, MaxTail) {
  const Collector c = MakeCollector();
  const Report r = BuildReport(c, 1.5);
  EXPECT_EQ(r.event_count, 3u);
  EXPECT_DOUBLE_EQ(r.avg_ect, 20.0);
  EXPECT_DOUBLE_EQ(r.tail_ect, 30.0);
  EXPECT_DOUBLE_EQ(r.avg_queuing_delay, 2.0);
  EXPECT_DOUBLE_EQ(r.worst_queuing_delay, 3.0);
  EXPECT_DOUBLE_EQ(r.total_cost, 30.0);
  EXPECT_DOUBLE_EQ(r.total_plan_time, 1.5);
  EXPECT_DOUBLE_EQ(r.makespan, 30.0);
}

TEST(BuildReportTest, PercentileTail) {
  const Collector c = MakeCollector();
  const Report r = BuildReport(c, 0.0, 0.5);
  EXPECT_DOUBLE_EQ(r.tail_ect, 20.0);
}

TEST(ReductionsTest, ComputesRelativeGains) {
  Report baseline, ours;
  baseline.avg_ect = 100.0;
  baseline.tail_ect = 200.0;
  baseline.total_cost = 50.0;
  baseline.avg_queuing_delay = 10.0;
  baseline.worst_queuing_delay = 40.0;
  baseline.total_plan_time = 2.0;
  ours.avg_ect = 25.0;
  ours.tail_ect = 150.0;
  ours.total_cost = 50.0;
  ours.avg_queuing_delay = 5.0;
  ours.worst_queuing_delay = 10.0;
  ours.total_plan_time = 9.0;

  const ReductionReport red = Reductions(baseline, ours);
  EXPECT_DOUBLE_EQ(red.avg_ect, 0.75);
  EXPECT_DOUBLE_EQ(red.tail_ect, 0.25);
  EXPECT_DOUBLE_EQ(red.total_cost, 0.0);
  EXPECT_DOUBLE_EQ(red.avg_queuing_delay, 0.5);
  EXPECT_DOUBLE_EQ(red.worst_queuing_delay, 0.75);
  EXPECT_DOUBLE_EQ(red.plan_time_ratio, 4.5);
}

}  // namespace
}  // namespace nu::metrics
