#include "topo/path_provider.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace nu::topo {
namespace {

TEST(FatTreePathProviderTest, MatchesDirectEnumeration) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const FatTreePathProvider provider(ft);
  const auto& via_provider = provider.Paths(ft.host(0), ft.host(8));
  const auto direct = ft.HostPaths(ft.host(0), ft.host(8));
  ASSERT_EQ(via_provider.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_provider[i], direct[i]);
  }
}

TEST(FatTreePathProviderTest, CachedReferenceStable) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const FatTreePathProvider provider(ft);
  const auto& first = provider.Paths(ft.host(0), ft.host(5));
  const auto& second = provider.Paths(ft.host(0), ft.host(5));
  EXPECT_EQ(&first, &second);
}

TEST(LeafSpinePathProviderTest, MatchesDirectEnumeration) {
  const LeafSpine ls(LeafSpineConfig{.leaves = 3,
                                     .spines = 2,
                                     .hosts_per_leaf = 2,
                                     .host_link_capacity = 1000.0,
                                     .fabric_link_capacity = 2000.0});
  const LeafSpinePathProvider provider(ls);
  const auto& paths = provider.Paths(ls.host(0), ls.host(4));
  EXPECT_EQ(paths.size(), 2u);
}

TEST(KspPathProviderTest, ReturnsUpToKPaths) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const KspPathProvider provider(ft.graph(), 3);
  const auto& paths = provider.Paths(ft.host(0), ft.host(8));
  EXPECT_EQ(paths.size(), 3u);
  for (const Path& p : paths) {
    EXPECT_TRUE(ft.graph().IsValidPath(p));
  }
}

TEST(NodeAvoidingPathProviderTest, FiltersPathsThroughNode) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const FatTreePathProvider base(ft);
  // Avoid one core switch: inter-pod pairs lose exactly one of their 4 paths.
  const NodeAvoidingPathProvider filtered(base, ft.core(0));
  const auto& all = base.Paths(ft.host(0), ft.host(8));
  const auto& kept = filtered.Paths(ft.host(0), ft.host(8));
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(kept.size(), 3u);
  for (const Path& p : kept) {
    for (NodeId n : p.nodes) EXPECT_NE(n, ft.core(0));
  }
}

TEST(LinkAvoidingPathProviderTest, FiltersBothDirections) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const FatTreePathProvider base(ft);
  // Fail the agg(0,0) -> core(0) cable: inter-pod pairs out of pod 0 lose
  // exactly the path through core 0.
  const LinkId cable = ft.graph().FindLink(ft.agg(0, 0), ft.core(0));
  ASSERT_TRUE(cable.valid());
  const LinkAvoidingPathProvider filtered(base, cable);
  EXPECT_TRUE(filtered.avoided_reverse().valid());

  const auto& all = base.Paths(ft.host(0), ft.host(8));
  const auto& kept = filtered.Paths(ft.host(0), ft.host(8));
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(kept.size(), 3u);
  for (const Path& p : kept) {
    for (LinkId lid : p.links) {
      EXPECT_NE(lid, cable);
      EXPECT_NE(lid, filtered.avoided_reverse());
    }
  }
  // The reverse direction (host8 -> host0) is filtered too.
  EXPECT_EQ(filtered.Paths(ft.host(8), ft.host(0)).size(), 3u);
}

TEST(LinkAvoidingPathProviderTest, HostLinkEmptiesEverything) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const FatTreePathProvider base(ft);
  const LinkId uplink = ft.graph().FindLink(ft.host(0), ft.edge(0, 0));
  const LinkAvoidingPathProvider filtered(base, uplink);
  EXPECT_TRUE(filtered.Paths(ft.host(0), ft.host(8)).empty());
  // Pairs not involving host 0 are unaffected.
  EXPECT_EQ(filtered.Paths(ft.host(4), ft.host(8)).size(), 4u);
}

TEST(NodeAvoidingPathProviderTest, CanEmptyOut) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const FatTreePathProvider base(ft);
  // Same-edge pair has exactly one path through its edge switch; avoiding
  // that switch leaves nothing.
  const NodeAvoidingPathProvider filtered(base, ft.edge(0, 0));
  EXPECT_TRUE(filtered.Paths(ft.host(0), ft.host(1)).empty());
}

TEST(PairIndexTest, FillsEachPairOnceAndKeepsItsAddress) {
  PairIndex index(300);
  int fills = 0;
  const auto fill = [&] {
    ++fills;
    return std::vector<Path>(2);
  };
  const auto& first = index.Get(NodeId{3}, NodeId{299}, fill);
  // 2,580 more pairs: the table grows several times.
  const auto each_pair = [&](auto&& visit) {
    for (NodeId::rep_type src = 0; src < 300; src += 7) {
      for (NodeId::rep_type dst = 0; dst < 300; dst += 5) {
        visit(NodeId{src}, NodeId{dst});
      }
    }
  };
  std::vector<const std::vector<Path>*> sets;
  each_pair([&](NodeId src, NodeId dst) {
    sets.push_back(&index.Get(src, dst, fill));
  });
  EXPECT_EQ(fills, 2581);
  std::size_t i = 0;
  each_pair([&](NodeId src, NodeId dst) {
    EXPECT_EQ(&index.Get(src, dst, fill), sets[i++]);
  });
  EXPECT_EQ(&index.Get(NodeId{3}, NodeId{299}, fill), &first);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(fills, 2581);
}

TEST(PairIndexTest, ResetDropsSetsOnlyForANewEpoch) {
  PairIndex index(8);
  int fills = 0;
  const auto fill = [&] {
    ++fills;
    return std::vector<Path>(static_cast<std::size_t>(fills));
  };
  EXPECT_EQ(index.epoch(), 0u);
  EXPECT_EQ(index.Get(NodeId{1}, NodeId{2}, fill).size(), 1u);
  index.Reset(0);  // same epoch: keeps the set
  EXPECT_EQ(index.Get(NodeId{1}, NodeId{2}, fill).size(), 1u);
  index.Reset(5);
  EXPECT_EQ(index.epoch(), 5u);
  EXPECT_EQ(index.Get(NodeId{1}, NodeId{2}, fill).size(), 2u);
  EXPECT_EQ(fills, 2);
}

/// Every ordered host pair of `ft`.
std::vector<std::pair<NodeId, NodeId>> HostPairs(const FatTree& ft) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t a = 0; a < ft.host_count(); ++a) {
    for (std::size_t b = 0; b < ft.host_count(); ++b) {
      if (a != b) pairs.emplace_back(ft.host(a), ft.host(b));
    }
  }
  return pairs;
}

/// Threads that start together look up every pair of `pairs` in `provider`,
/// each from its own rotation of the list so fills of overlapping pairs
/// race. Returns, per thread, the set each pair resolved to.
std::vector<std::vector<const std::vector<Path>*>> RaceLookups(
    const PathProvider& provider,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<const std::vector<Path>*>> seen(
      kThreads, std::vector<const std::vector<Path>*>(pairs.size()));
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (std::size_t n = 0; n < pairs.size(); ++n) {
        const std::size_t i = (n + t * pairs.size() / kThreads) % pairs.size();
        seen[t][i] = &provider.Paths(pairs[i].first, pairs[i].second);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return seen;
}

/// Each pair resolved to one object on every thread, equal in content to
/// the sequential provider's set.
void ExpectOneSetPerPair(
    const std::vector<std::vector<const std::vector<Path>*>>& seen,
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const PathProvider& sequential) {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (const auto& thread_seen : seen) {
      ASSERT_EQ(thread_seen[i], seen.front()[i]) << "pair " << i;
    }
    EXPECT_EQ(*seen.front()[i],
              sequential.Paths(pairs[i].first, pairs[i].second))
        << "pair " << i;
  }
}

TEST(PairIndexTest, RacingFillsPublishOneSetPerPair) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const FatTreePathProvider sequential(ft);
  const FatTreePathProvider racing(ft);
  const auto pairs = HostPairs(ft);
  ExpectOneSetPerPair(RaceLookups(racing, pairs), pairs, sequential);
}

TEST(PairIndexTest, RacingRefillsAfterEpochReset) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const FatTreePathProvider base(ft);
  // Drops the paths through one core switch, which changes per epoch, so a
  // stale set after a reset would show.
  std::atomic<std::uint64_t> epoch{0};
  const PredicatePathProvider racing(
      base,
      [&](const Path& p) {
        for (const NodeId n : p.nodes) {
          if (n == ft.core(epoch.load() % ft.core_count())) return false;
        }
        return true;
      },
      [&] { return epoch.load(); });
  const auto pairs = HostPairs(ft);
  for (std::uint64_t round = 0; round < 3; ++round) {
    // The epoch changes between rounds, while no thread reads.
    epoch.store(round);
    const NodeAvoidingPathProvider sequential(
        base, ft.core(round % ft.core_count()));
    ExpectOneSetPerPair(RaceLookups(racing, pairs), pairs, sequential);
  }
}

}  // namespace
}  // namespace nu::topo
