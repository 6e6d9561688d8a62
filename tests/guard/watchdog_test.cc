// Deadline budgets, escalating requeue backoff, and the poison-quarantine
// decision of the stuck-event watchdog.
#include "guard/watchdog.h"

#include <gtest/gtest.h>

namespace nu::guard {
namespace {

DeadlineConfig TestConfig() {
  DeadlineConfig config;
  config.base_deadline = 2.0;
  config.per_flow_deadline = 0.5;
  config.max_failures = 3;
  config.requeue_backoff = 0.5;
  config.backoff_factor = 2.0;
  config.max_backoff = 1.5;
  return config;
}

TEST(DeadlineConfigTest, ZeroBaseDisables) {
  DeadlineConfig config;
  EXPECT_FALSE(config.enabled());
  config.base_deadline = 1.0;
  EXPECT_TRUE(config.enabled());
}

TEST(DeadlineConfigTest, DeadlineScalesWithFlowCount) {
  const DeadlineConfig config = TestConfig();
  EXPECT_DOUBLE_EQ(config.DeadlineFor(0), 2.0);
  EXPECT_DOUBLE_EQ(config.DeadlineFor(1), 2.5);
  EXPECT_DOUBLE_EQ(config.DeadlineFor(10), 7.0);
}

TEST(DeadlineConfigTest, BackoffEscalatesAndCaps) {
  const DeadlineConfig config = TestConfig();
  EXPECT_DOUBLE_EQ(config.BackoffAfter(1), 0.5);
  EXPECT_DOUBLE_EQ(config.BackoffAfter(2), 1.0);
  EXPECT_DOUBLE_EQ(config.BackoffAfter(3), 1.5);  // 2.0 capped at max_backoff
  EXPECT_DOUBLE_EQ(config.BackoffAfter(7), 1.5);
}

TEST(WatchdogTest, QuarantinesAfterFailureBudget) {
  Watchdog watchdog(TestConfig());
  const EventId event{1};
  EXPECT_FALSE(watchdog.RecordMiss(event));
  EXPECT_FALSE(watchdog.RecordMiss(event));
  EXPECT_TRUE(watchdog.RecordMiss(event));  // third miss: poison
  EXPECT_EQ(watchdog.failures(event), 3u);
}

TEST(WatchdogTest, FailureCountsArePerEvent) {
  Watchdog watchdog(TestConfig());
  EXPECT_FALSE(watchdog.RecordMiss(EventId{1}));
  EXPECT_FALSE(watchdog.RecordMiss(EventId{2}));
  EXPECT_EQ(watchdog.failures(EventId{1}), 1u);
  EXPECT_EQ(watchdog.failures(EventId{2}), 1u);
  EXPECT_EQ(watchdog.failures(EventId{3}), 0u);
}

TEST(WatchdogTest, RequeueDelayTracksMissCount) {
  Watchdog watchdog(TestConfig());
  const EventId event{4};
  (void)watchdog.RecordMiss(event);
  EXPECT_DOUBLE_EQ(watchdog.RequeueDelay(event), 0.5);
  (void)watchdog.RecordMiss(event);
  EXPECT_DOUBLE_EQ(watchdog.RequeueDelay(event), 1.0);
}

// A CRC-valid snapshot can still list one event twice. LoadState throws
// CorruptInput, the recovery path's cue to fall back to an older snapshot.
TEST(WatchdogTest, LoadRejectsARepeatedEvent) {
  BinWriter w;
  w.Size(2);
  w.U64(7);  // event id
  w.U64(1);  // misses
  w.U64(7);
  w.U64(2);
  Watchdog watchdog(TestConfig());
  BinReader r(w.buffer());
  EXPECT_THROW(watchdog.LoadState(r), CorruptInput);
}

}  // namespace
}  // namespace nu::guard
