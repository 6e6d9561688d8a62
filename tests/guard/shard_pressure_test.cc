// Shard pressure aggregation: the sharded engine's per-shard queue depths
// fold into the one global pressure the overload guard reads.
#include <gtest/gtest.h>

#include <vector>

#include "guard/shard_pressure.h"

namespace nu::guard {
namespace {

// Pressure aggregation: the global queue pressure is the sum of per-shard
// depths, with capacity and shed totals passed through untouched.
TEST(ShardPressureTest, AggregatesDepthsExactly) {
  const std::vector<std::size_t> depths{3, 0, 5, 2};
  const sched::QueuePressure p = AggregateShardPressure(depths, 16, 4);
  EXPECT_EQ(p.length, 10u);
  EXPECT_EQ(p.capacity, 16u);
  EXPECT_EQ(p.shed_total, 4u);
  EXPECT_FALSE(p.Overloaded());

  const std::vector<std::size_t> heavy{8, 9};
  EXPECT_TRUE(AggregateShardPressure(heavy, 16, 0).Overloaded());

  const std::vector<std::size_t> empty;
  EXPECT_EQ(AggregateShardPressure(empty, 0, 0).length, 0u);
}

}  // namespace
}  // namespace nu::guard
