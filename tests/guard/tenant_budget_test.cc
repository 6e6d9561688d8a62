// Token-bucket admission budgets: lazy refill in virtual time, burst caps,
// weight scaling, tenant isolation, and snapshot round-tripping.
#include "guard/tenant_budget.h"

#include <gtest/gtest.h>

namespace nu::guard {
namespace {

TEST(TokenBucketTest, BurstThenRefill) {
  TokenBucket bucket(/*rate=*/1.0, /*burst=*/2.0);
  // Starts full: the burst drains, then the empty bucket rejects.
  EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_FALSE(bucket.TryTake(0.0));
  // 1 token/s refill: at t=0.5 still short, at t=1.0 one token is back.
  EXPECT_FALSE(bucket.TryTake(0.5));
  EXPECT_TRUE(bucket.TryTake(1.5));
  EXPECT_FALSE(bucket.TryTake(1.5));
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/3.0);
  // A long idle period must not bank more than `burst` tokens.
  EXPECT_DOUBLE_EQ(bucket.TokensAt(100.0), 3.0);
  EXPECT_TRUE(bucket.TryTake(100.0));
  EXPECT_TRUE(bucket.TryTake(100.0));
  EXPECT_TRUE(bucket.TryTake(100.0));
  EXPECT_FALSE(bucket.TryTake(100.0));
}

TEST(TokenBucketTest, UnderRateTrafficIsNeverThrottled) {
  TokenBucket bucket(/*rate=*/2.0, /*burst=*/1.0);
  // One event per second against a 2/s budget: always admitted.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(bucket.TryTake(static_cast<Seconds>(i))) << "t=" << i;
  }
}

TEST(TokenBucketTest, SaveLoadRoundTrip) {
  TokenBucket bucket(/*rate=*/1.5, /*burst=*/4.0);
  ASSERT_TRUE(bucket.TryTake(2.0));
  ASSERT_TRUE(bucket.TryTake(2.0));

  BinWriter w;
  bucket.SaveState(w);
  TokenBucket restored(1.5, 4.0);
  BinReader r(w.buffer());
  restored.LoadState(r);

  EXPECT_DOUBLE_EQ(restored.TokensAt(2.0), bucket.TokensAt(2.0));
  EXPECT_DOUBLE_EQ(restored.TokensAt(3.0), bucket.TokensAt(3.0));
}

TenantBudgetConfig EnabledConfig() {
  TenantBudgetConfig config;
  config.enabled = true;
  config.default_rate = 1.0;
  config.default_burst = 2.0;
  return config;
}

TEST(TenantBudgetsTest, DisabledAdmitsEverything) {
  TenantBudgets budgets(TenantBudgetConfig{}, {1.0, 1.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(budgets.Admit(TenantId{0}, 0.0));
  }
}

TEST(TenantBudgetsTest, UntaggedAndOutOfRosterAdmit) {
  TenantBudgets budgets(EnabledConfig(), {1.0});
  EXPECT_TRUE(budgets.Admit(TenantId{}, 0.0));    // untagged (offline event)
  EXPECT_TRUE(budgets.Admit(TenantId{7}, 0.0));   // out of roster
}

TEST(TenantBudgetsTest, WeightsScaleRateAndBurst) {
  // weight 2.0 => 2x refill rate and 2x burst capacity.
  TenantBudgets budgets(EnabledConfig(), {1.0, 2.0});
  EXPECT_DOUBLE_EQ(budgets.bucket(TenantId{0}).rate(), 1.0);
  EXPECT_DOUBLE_EQ(budgets.bucket(TenantId{0}).burst(), 2.0);
  EXPECT_DOUBLE_EQ(budgets.bucket(TenantId{1}).rate(), 2.0);
  EXPECT_DOUBLE_EQ(budgets.bucket(TenantId{1}).burst(), 4.0);
}

TEST(TenantBudgetsTest, OneTenantBlastingDoesNotStarveTheOther) {
  TenantBudgets budgets(EnabledConfig(), {1.0, 1.0});
  // Tenant 0 blasts at t=0 until rejected; tenant 1's bucket is untouched.
  int admitted = 0;
  while (budgets.Admit(TenantId{0}, 0.0)) ++admitted;
  EXPECT_EQ(admitted, 2);  // its burst
  EXPECT_TRUE(budgets.Admit(TenantId{1}, 0.0));
  EXPECT_TRUE(budgets.Admit(TenantId{1}, 0.0));
  EXPECT_FALSE(budgets.Admit(TenantId{1}, 0.0));
}

TEST(TenantBudgetsTest, SaveLoadRoundTrip) {
  TenantBudgets budgets(EnabledConfig(), {1.0, 3.0});
  ASSERT_TRUE(budgets.Admit(TenantId{0}, 1.0));
  ASSERT_TRUE(budgets.Admit(TenantId{1}, 1.0));

  BinWriter w;
  budgets.SaveState(w);
  TenantBudgets restored(EnabledConfig(), {1.0, 3.0});
  BinReader r(w.buffer());
  restored.LoadState(r);

  ASSERT_EQ(restored.tenant_count(), 2u);
  EXPECT_DOUBLE_EQ(restored.bucket(TenantId{0}).TokensAt(1.0),
                   budgets.bucket(TenantId{0}).TokensAt(1.0));
  EXPECT_DOUBLE_EQ(restored.bucket(TenantId{1}).TokensAt(1.0),
                   budgets.bucket(TenantId{1}).TokensAt(1.0));
}

// A CRC-valid snapshot can still hold a bucket count other than the
// roster's. LoadState throws CorruptInput, the recovery path's cue to fall
// back to an older snapshot.
TEST(TenantBudgetsTest, LoadRejectsABucketCountOffTheRoster) {
  BinWriter w;
  TenantBudgets(EnabledConfig(), {1.0, 2.0, 3.0}).SaveState(w);
  TenantBudgets restored(EnabledConfig(), {1.0, 3.0});
  BinReader r(w.buffer());
  EXPECT_THROW(restored.LoadState(r), CorruptInput);
}

}  // namespace
}  // namespace nu::guard
