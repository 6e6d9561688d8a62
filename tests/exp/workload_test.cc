#include "exp/runner.h"

#include <gtest/gtest.h>

#include "guard/auditor.h"

namespace nu::exp {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.fat_tree_k = 4;
  config.utilization = 0.4;
  config.event_count = 5;
  config.min_flows_per_event = 3;
  config.max_flows_per_event = 10;
  config.seed = 123;
  return config;
}

TEST(WorkloadTest, BuildsConfiguredPieces) {
  const Workload w(SmallConfig());
  EXPECT_EQ(w.fat_tree().k(), 4u);
  EXPECT_EQ(w.events().size(), 5u);
  EXPECT_GE(w.background().achieved_utilization, 0.4);
  EXPECT_EQ(guard::Auditor().Audit(w.network(), {}), 0u);
  for (const auto& e : w.events()) {
    EXPECT_GE(e.flow_count(), 3u);
    EXPECT_LE(e.flow_count(), 10u);
  }
}

TEST(WorkloadTest, DeterministicForSeed) {
  const Workload a(SmallConfig());
  const Workload b(SmallConfig());
  EXPECT_EQ(a.background().placed_flows, b.background().placed_flows);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].flow_count(), b.events()[i].flow_count());
    EXPECT_DOUBLE_EQ(a.events()[i].TotalDemand(),
                     b.events()[i].TotalDemand());
  }
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  ExperimentConfig c1 = SmallConfig();
  ExperimentConfig c2 = SmallConfig();
  c2.seed = 456;
  const Workload a(c1);
  const Workload b(c2);
  // Background placement counts almost surely differ.
  EXPECT_NE(a.events()[0].TotalDemand(), b.events()[0].TotalDemand());
}

TEST(WorkloadTest, TraceFamiliesAllBuild) {
  for (const TraceFamily family :
       {TraceFamily::kYahooLike, TraceFamily::kBenson, TraceFamily::kUniform}) {
    ExperimentConfig config = SmallConfig();
    config.background_trace = family;
    const Workload w(config);
    EXPECT_GT(w.background().placed_flows, 0u) << ToString(family);
  }
}

TEST(WorkloadTest, LeafSpineTopologyBuilds) {
  ExperimentConfig config = SmallConfig();
  config.topology = TopologyKind::kLeafSpine;
  config.leaf_spine_leaves = 4;
  config.leaf_spine_spines = 2;
  config.leaf_spine_hosts_per_leaf = 4;
  const Workload w(config);
  EXPECT_EQ(w.leaf_spine().hosts().size(), 16u);
  EXPECT_EQ(w.hosts().size(), 16u);
  EXPECT_GT(w.background().placed_flows, 0u);
  EXPECT_EQ(w.events().size(), config.event_count);
  EXPECT_EQ(guard::Auditor().Audit(w.network(), {}), 0u);
}

TEST(WorkloadDeathTest, WrongTopologyAccessorDies) {
  const Workload w(SmallConfig());  // fat-tree
  EXPECT_DEATH((void)w.leaf_spine(), "Precondition");
}

TEST(WorkloadTest, LeafSpineSchedulersRun) {
  ExperimentConfig config = SmallConfig();
  config.topology = TopologyKind::kLeafSpine;
  config.leaf_spine_leaves = 4;
  config.leaf_spine_spines = 2;
  config.leaf_spine_hosts_per_leaf = 4;
  const Workload w(config);
  const sim::SimResult result = RunScheduler(w, sched::SchedulerKind::kPlmtf);
  EXPECT_EQ(result.records.size(), config.event_count);
}

TEST(ConfigTest, ToStringCoversEnums) {
  EXPECT_STREQ(ToString(TopologyKind::kFatTree), "fat-tree");
  EXPECT_STREQ(ToString(TopologyKind::kLeafSpine), "leaf-spine");
  EXPECT_STREQ(ToString(TraceFamily::kYahooLike), "yahoo-like");
  EXPECT_STREQ(ToString(TraceFamily::kBenson), "benson");
  EXPECT_STREQ(ToString(TraceFamily::kUniform), "uniform");
}

TEST(MakeTrafficGeneratorTest, NamesMatch) {
  const Workload w(SmallConfig());
  Rng rng(1);
  EXPECT_STREQ(MakeTrafficGenerator(TraceFamily::kYahooLike,
                                    w.hosts(), rng)
                   ->name(),
               "yahoo-like");
  EXPECT_STREQ(
      MakeTrafficGenerator(TraceFamily::kBenson, w.hosts(), rng)
          ->name(),
      "benson");
  EXPECT_STREQ(
      MakeTrafficGenerator(TraceFamily::kUniform, w.hosts(), rng)
          ->name(),
      "uniform");
}

}  // namespace
}  // namespace nu::exp
