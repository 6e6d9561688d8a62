#include "topo/shard_map.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "topo/fat_tree.h"
#include "topo/leaf_spine.h"

namespace nu::topo {
namespace {

topo::FatTree MakeFatTree(std::size_t k) {
  return topo::FatTree(topo::FatTreeConfig{.k = k, .link_capacity = 100.0});
}

/// Nodes per shard.
std::vector<std::size_t> ShardSizes(const Graph& graph, const ShardMap& map) {
  std::vector<std::size_t> sizes(map.shard_count(), 0);
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    ++sizes.at(map.ShardOf(NodeId{static_cast<NodeId::rep_type>(v)}));
  }
  return sizes;
}

// With shards == pod_count, the component partition must put every node of
// one pod (hosts, edge, agg) into one shard, and no two pods into the same
// shard when the counts line up exactly.
TEST(ShardMapTest, FatTreePodsMapToShards) {
  const topo::FatTree ft = MakeFatTree(4);
  const ShardMap map(ft.graph(), ft.pod_count());
  ASSERT_EQ(map.shard_count(), 4u);

  for (std::size_t pod = 0; pod < ft.pod_count(); ++pod) {
    // All switches of a pod share the shard of the pod's first edge switch.
    const std::size_t shard = map.ShardOf(ft.edge(pod, 0));
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(map.ShardOf(ft.edge(pod, i)), shard);
      EXPECT_EQ(map.ShardOf(ft.agg(pod, i)), shard);
    }
  }
  // Hosts follow their pod's edge switch.
  for (std::size_t h = 0; h < 16; ++h) {
    const NodeId host = ft.host(h);
    EXPECT_EQ(map.ShardOf(host), map.ShardOf(ft.edge(ft.PodOfHost(host), 0)));
  }
  // Distinct pods land on distinct shards (4 components onto 4 shards).
  std::set<std::size_t> pod_shards;
  for (std::size_t pod = 0; pod < ft.pod_count(); ++pod) {
    pod_shards.insert(map.ShardOf(ft.edge(pod, 0)));
  }
  EXPECT_EQ(pod_shards.size(), ft.pod_count());
}

// Folding more pods than shards round-robins the components; every shard
// stays non-empty and the assignment remains total.
TEST(ShardMapTest, MorePodsThanShardsRoundRobins) {
  const topo::FatTree ft = MakeFatTree(8);  // 8 pods
  const ShardMap map(ft.graph(), 4);
  ASSERT_EQ(map.shard_count(), 4u);
  for (std::size_t size : ShardSizes(ft.graph(), map)) EXPECT_GT(size, 0u);
}

// Fewer components than shards (here: a 2-leaf leaf-spine has only 2
// rack subtrees once the spine/core layer is removed) falls back to
// node-id striping — still total, still deterministic.
TEST(ShardMapTest, FallbackStripingCoversDegenerateGraphs) {
  const topo::LeafSpine ls(topo::LeafSpineConfig{
      .leaves = 2, .spines = 2, .hosts_per_leaf = 4});
  const ShardMap map(ls.graph(), 4);
  ASSERT_EQ(map.shard_count(), 4u);
  for (std::size_t size : ShardSizes(ls.graph(), map)) EXPECT_GT(size, 0u);
}

}  // namespace
}  // namespace nu::topo
