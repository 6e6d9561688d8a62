#include "update/migration.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "guard/auditor.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

namespace nu::update {
namespace {

// ---------- SelectCoverSet (pure min-sum subset cover) ----------

double SumOf(const std::vector<std::size_t>& chosen,
             const std::vector<double>& weights) {
  double s = 0.0;
  for (std::size_t i : chosen) s += weights[i];
  return s;
}

class AllStrategies
    : public ::testing::TestWithParam<MigrationStrategy> {};

TEST_P(AllStrategies, CoversTheDeficit) {
  const std::vector<double> weights{5.0, 3.0, 8.0, 2.0, 7.0};
  const auto chosen = SelectCoverSet(weights, 10.0, GetParam());
  ASSERT_TRUE(chosen.has_value());
  EXPECT_GE(SumOf(*chosen, weights), 10.0);
}

TEST_P(AllStrategies, EmptyWhenDeficitNonPositive) {
  const std::vector<double> weights{1.0, 2.0};
  const auto chosen = SelectCoverSet(weights, 0.0, GetParam());
  ASSERT_TRUE(chosen.has_value());
  EXPECT_TRUE(chosen->empty());
}

TEST_P(AllStrategies, InfeasibleWhenTotalTooSmall) {
  const std::vector<double> weights{1.0, 2.0};
  EXPECT_FALSE(SelectCoverSet(weights, 4.0, GetParam()).has_value());
}

TEST_P(AllStrategies, ExactlyFullSetWhenNeeded) {
  const std::vector<double> weights{1.0, 2.0, 3.0};
  const auto chosen = SelectCoverSet(weights, 6.0, GetParam());
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, AllStrategies,
    ::testing::Values(MigrationStrategy::kGreedyLargestFirst,
                      MigrationStrategy::kBestFitDecreasing,
                      MigrationStrategy::kLocalSearch,
                      MigrationStrategy::kExactSmall));

TEST(SelectCoverSetTest, BestFitPrefersSmallestSingleCover) {
  // Deficit 4: singles >= 4 are {8, 5, 4.5}; best-fit should take 4.5.
  const std::vector<double> weights{8.0, 5.0, 4.5, 2.0, 1.0};
  const auto chosen =
      SelectCoverSet(weights, 4.0, MigrationStrategy::kBestFitDecreasing);
  ASSERT_TRUE(chosen.has_value());
  ASSERT_EQ(chosen->size(), 1u);
  EXPECT_DOUBLE_EQ(weights[(*chosen)[0]], 4.5);
}

TEST(SelectCoverSetTest, ExactBeatsOrMatchesGreedyAlways) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + rng.Index(10);
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) {
      weights.push_back(rng.Uniform(0.5, 20.0));
    }
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    const double deficit = rng.Uniform(0.1, total);
    const auto exact =
        SelectCoverSet(weights, deficit, MigrationStrategy::kExactSmall);
    ASSERT_TRUE(exact.has_value());
    EXPECT_GE(SumOf(*exact, weights), deficit);
    for (const MigrationStrategy heuristic :
         {MigrationStrategy::kGreedyLargestFirst,
          MigrationStrategy::kBestFitDecreasing,
          MigrationStrategy::kLocalSearch}) {
      const auto h = SelectCoverSet(weights, deficit, heuristic);
      ASSERT_TRUE(h.has_value());
      EXPECT_LE(SumOf(*exact, weights), SumOf(*h, weights) + 1e-9)
          << "exact worse than " << ToString(heuristic);
    }
  }
}

TEST(SelectCoverSetTest, LocalSearchNoWorseThanBestFit) {
  Rng rng(88);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 4 + rng.Index(12);
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) {
      weights.push_back(rng.Uniform(0.5, 20.0));
    }
    const double deficit = rng.Uniform(
        0.1, std::accumulate(weights.begin(), weights.end(), 0.0));
    const auto bfd =
        SelectCoverSet(weights, deficit, MigrationStrategy::kBestFitDecreasing);
    const auto ls =
        SelectCoverSet(weights, deficit, MigrationStrategy::kLocalSearch);
    ASSERT_TRUE(bfd.has_value());
    ASSERT_TRUE(ls.has_value());
    EXPECT_LE(SumOf(*ls, weights), SumOf(*bfd, weights) + 1e-9);
  }
}

TEST(SelectCoverSetTest, ExactSolvesKnownHardInstance) {
  // Deficit 10 over {6, 5, 5, 4}: greedy-largest takes {6,5}=11,
  // optimum is {5,5}=10 (or {6,4}=10).
  const std::vector<double> weights{6.0, 5.0, 5.0, 4.0};
  const auto exact =
      SelectCoverSet(weights, 10.0, MigrationStrategy::kExactSmall);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(SumOf(*exact, weights), 10.0);
}

// ---------- MigrationOptimizer on real networks ----------

struct FatTreeFixture {
  FatTreeFixture()
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        network(ft.graph()) {}

  FlowId PlaceOn(const topo::Path& path, Mbps demand) {
    flow::Flow f;
    f.src = path.source();
    f.dst = path.destination();
    f.demand = demand;
    f.duration = 10.0;
    return network.Place(std::move(f), path);
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

TEST(MigrationOptimizerTest, NoMigrationWhenPathFree) {
  FatTreeFixture fx;
  const MigrationOptimizer optimizer(fx.provider);
  const auto& path = fx.provider.Paths(fx.ft.host(0), fx.ft.host(8))[0];
  const MigrationPlan plan = optimizer.Plan(fx.network, 50.0, path);
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_DOUBLE_EQ(plan.migrated_traffic, 0.0);
}

TEST(MigrationOptimizerTest, MigratesBlockerOffSharedFabricLink) {
  FatTreeFixture fx;
  const MigrationOptimizer optimizer(fx.provider);
  // Desired: host0 -> host2 (same pod, different edge), via agg A.
  const auto& candidates = fx.provider.Paths(fx.ft.host(0), fx.ft.host(2));
  ASSERT_EQ(candidates.size(), 2u);
  // Blocker from host1 (same edge as host0) occupies BOTH agg paths'
  // edge0->agg links? No — place blockers on each agg path so that the
  // desired path lacks capacity but the blocker can be migrated.
  // Occupy agg path 0 with 80 Mbps from host1 -> host3.
  const auto& blocker_candidates =
      fx.provider.Paths(fx.ft.host(1), fx.ft.host(3));
  const FlowId blocker = fx.PlaceOn(blocker_candidates[0], 80.0);
  // The desired path shares edge0->agg0 with the blocker; ask for 50.
  const topo::Path desired = candidates[0];
  ASSERT_FALSE(fx.network.CanPlace(50.0, desired));

  const MigrationPlan plan = optimizer.Plan(fx.network, 50.0, desired);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves[0].flow, blocker);
  EXPECT_DOUBLE_EQ(plan.migrated_traffic, 80.0);

  // Applying the plan makes the desired path feasible on the live network.
  MigrationOptimizer::Apply(fx.network, plan);
  EXPECT_TRUE(fx.network.CanPlace(50.0, desired));
  EXPECT_EQ(guard::Auditor().Audit(fx.network, {}), 0u);
}

TEST(MigrationOptimizerTest, PicksCheapestSufficientBlocker) {
  FatTreeFixture fx;
  const MigrationOptimizer optimizer(fx.provider);
  const auto& candidates = fx.provider.Paths(fx.ft.host(0), fx.ft.host(2));
  const topo::Path desired = candidates[0];
  // Two blockers share the desired path's edge0->agg0 link: 60 and 30 Mbps.
  const auto& blocker_candidates =
      fx.provider.Paths(fx.ft.host(1), fx.ft.host(3));
  fx.PlaceOn(blocker_candidates[0], 60.0);
  const FlowId small = fx.PlaceOn(blocker_candidates[0], 30.0);
  // Residual on that link = 10; need 40 -> deficit 30. The 30 Mbps blocker
  // alone suffices and is cheapest.
  const MigrationPlan plan = optimizer.Plan(fx.network, 40.0, desired);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves[0].flow, small);
  EXPECT_DOUBLE_EQ(plan.migrated_traffic, 30.0);
}

TEST(MigrationOptimizerTest, InfeasibleWhenBlockersCannotMove) {
  FatTreeFixture fx;
  const MigrationOptimizer optimizer(fx.provider);
  // Saturate host0's own uplink (the only path out): migration cannot help
  // because the blocker shares the single host link.
  const auto& single = fx.provider.Paths(fx.ft.host(0), fx.ft.host(1));
  ASSERT_EQ(single.size(), 1u);
  fx.PlaceOn(single[0], 90.0);
  const MigrationPlan plan = optimizer.Plan(fx.network, 50.0, single[0]);
  EXPECT_FALSE(plan.feasible);
}

TEST(MigrationOptimizerTest, MigrationKeepsNetworkCongestionFree) {
  FatTreeFixture fx;
  const MigrationOptimizer optimizer(fx.provider);
  Rng rng(123);
  // Load the fabric with random feasible flows.
  std::vector<FlowId> placed;
  for (int i = 0; i < 60; ++i) {
    const auto src = fx.ft.host(rng.Index(fx.ft.host_count()));
    auto dst = fx.ft.host(rng.Index(fx.ft.host_count()));
    if (src == dst) continue;
    const double demand = rng.Uniform(5.0, 40.0);
    const auto& paths = fx.provider.Paths(src, dst);
    const auto& path = paths[rng.Index(paths.size())];
    if (fx.network.CanPlace(demand, path)) {
      flow::Flow f;
      f.src = src;
      f.dst = dst;
      f.demand = demand;
      f.duration = 5.0;
      placed.push_back(fx.network.Place(std::move(f), path));
    }
  }
  ASSERT_EQ(guard::Auditor().Audit(fx.network, {}), 0u);

  // Plan migrations for many new demands; whenever feasible, applying the
  // plan must leave the network congestion-free and admit the new flow.
  int feasible_plans = 0;
  for (int i = 0; i < 40; ++i) {
    const auto src = fx.ft.host(rng.Index(fx.ft.host_count()));
    auto dst = fx.ft.host(rng.Index(fx.ft.host_count()));
    if (src == dst) continue;
    const double demand = rng.Uniform(30.0, 80.0);
    const auto& paths = fx.provider.Paths(src, dst);
    const topo::Path& desired = paths[rng.Index(paths.size())];
    if (fx.network.CanPlace(demand, desired)) continue;  // nothing to test
    net::Network scratch = fx.network;
    const MigrationPlan plan = optimizer.Plan(scratch, demand, desired);
    if (!plan.feasible) continue;
    ++feasible_plans;
    MigrationOptimizer::Apply(scratch, plan);
    EXPECT_TRUE(scratch.CanPlace(demand, desired));
    EXPECT_EQ(guard::Auditor().Audit(scratch, {}), 0u);
    EXPECT_GT(plan.migrated_traffic, 0.0);
  }
  EXPECT_GT(feasible_plans, 0) << "fixture never exercised migration";
}

TEST(MigrationOptimizerTest, MovesOrderedApplicableSequentially) {
  FatTreeFixture fx;
  const MigrationOptimizer optimizer(fx.provider);
  const auto& candidates = fx.provider.Paths(fx.ft.host(0), fx.ft.host(2));
  const topo::Path desired = candidates[0];
  const auto& blocker_paths = fx.provider.Paths(fx.ft.host(1), fx.ft.host(3));
  fx.PlaceOn(blocker_paths[0], 50.0);
  fx.PlaceOn(blocker_paths[0], 45.0);
  const MigrationPlan plan = optimizer.Plan(fx.network, 99.0, desired);
  ASSERT_TRUE(plan.feasible);
  // Apply one-by-one: every intermediate state stays congestion-free.
  for (const MigrationMove& move : plan.moves) {
    fx.network.Reroute(move.flow,
                       fx.network.path_registry().Get(move.new_path));
    EXPECT_EQ(guard::Auditor().Audit(fx.network, {}), 0u);
  }
  EXPECT_TRUE(fx.network.CanPlace(99.0, desired));
}

TEST(FindRerouteTargetTest, AvoidsForbiddenLinks) {
  FatTreeFixture fx;
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(2));
  const FlowId id = fx.PlaceOn(paths[0], 10.0);
  std::vector<char> forbidden(fx.network.graph().link_count(), 0);
  for (LinkId l : paths[1].links) forbidden[l.value()] = 1;
  // The only other candidate path is paths[1], fully forbidden.
  EXPECT_EQ(FindRerouteTargetPtr(fx.network, fx.provider, id, forbidden),
            nullptr);
}

TEST(FindRerouteTargetTest, PicksWidestAlternative) {
  FatTreeFixture fx;
  // Inter-pod flow with 4 candidate paths on k=4.
  const auto& paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(8));
  ASSERT_EQ(paths.size(), 4u);
  const FlowId id = fx.PlaceOn(paths[0], 10.0);
  // Narrow path 1 by loading its core switch with a flow to a DIFFERENT
  // destination host (so only p1's core links are narrowed, not the shared
  // destination host link).
  const topo::Path& p1 = paths[1];
  flow::Flow narrow;
  narrow.src = fx.ft.host(4);
  narrow.dst = fx.ft.host(10);
  narrow.demand = 70.0;
  narrow.duration = 1.0;
  // Find a candidate of host4->host10 sharing p1's core.
  for (const topo::Path& q :
       fx.provider.Paths(fx.ft.host(4), fx.ft.host(10))) {
    if (q.nodes[3] == p1.nodes[3]) {
      fx.network.Place(std::move(narrow), q);
      break;
    }
  }
  const topo::Path* target =
      FindRerouteTargetPtr(fx.network, fx.provider, id, {});
  ASSERT_NE(target, nullptr);
  EXPECT_NE(target->nodes[3], p1.nodes[3]) << "picked the narrowed path";
}

}  // namespace
}  // namespace nu::update
