// PathRegistry: interning semantics (dedup, ref/content equivalence),
// reference stability across growth, placement survival across Network
// save/load (refs are never serialized — the snapshot re-interns), and
// rejection of snapshots taken against a different topology.
#include "topo/path_registry.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/binio.h"
#include "net/network.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

namespace nu::topo {
namespace {

Path LinePath(std::size_t start, std::size_t length) {
  Path p;
  for (std::size_t i = 0; i <= length; ++i) {
    p.nodes.push_back(NodeId{static_cast<NodeId::rep_type>(start + i)});
    if (i < length) {
      p.links.push_back(LinkId{static_cast<LinkId::rep_type>(start + i)});
    }
  }
  return p;
}

TEST(PathRegistryTest, InternDedupsByContent) {
  PathRegistry registry;
  const Path a = LinePath(0, 3);
  const Path b = LinePath(10, 3);

  const PathRef ra = registry.Intern(a);
  const PathRef rb = registry.Intern(b);
  EXPECT_NE(ra, rb);
  EXPECT_EQ(registry.size(), 2u);

  // Re-interning identical content returns the existing ref: within one
  // registry, ref equality is content equality.
  EXPECT_EQ(registry.Intern(a), ra);
  EXPECT_EQ(registry.Intern(Path{a.nodes, a.links}), ra);
  EXPECT_EQ(registry.size(), 2u);

  EXPECT_EQ(registry.Get(ra), a);
  EXPECT_EQ(registry.Get(rb), b);
}

TEST(PathRegistryTest, GetReferencesStableAcrossGrowth) {
  PathRegistry registry;
  const PathRef first = registry.Intern(LinePath(0, 2));
  const Path* first_address = &registry.Get(first);

  // Push the registry across several chunk boundaries; the early entry's
  // address must not move (hot-path readers hold `const Path&`).
  std::vector<PathRef> refs;
  for (std::size_t i = 0; i < 5000; ++i) refs.push_back(
      registry.Intern(LinePath(i + 1, 1 + i % 4)));
  EXPECT_EQ(&registry.Get(first), first_address);
  EXPECT_EQ(registry.Get(first), LinePath(0, 2));
  // Spot-check late entries resolve too.
  EXPECT_EQ(registry.Get(refs.back()), LinePath(5000, 1 + 4999 % 4));
}

TEST(PathRegistryTest, DedupsAcrossIndexGrowths) {
  PathRegistry registry;
  const std::size_t initial_slots = registry.index_slots();
  const PathRef first = registry.Intern(LinePath(0, 1));
  const Path* first_address = &registry.Get(first);

  constexpr std::size_t kPaths = 12000;  // many index doublings
  std::vector<PathRef> refs{first};
  for (std::size_t i = 1; i < kPaths; ++i) {
    refs.push_back(registry.Intern(LinePath(i, 1 + i % 5)));
  }
  EXPECT_EQ(registry.size(), kPaths);
  EXPECT_GT(registry.index_slots(), initial_slots);
  EXPECT_GE(registry.index_slots(), 2 * kPaths);  // at most half full
  // Every path found again through the grown index, with no growth.
  const std::size_t slots = registry.index_slots();
  for (std::size_t i = 0; i < kPaths; ++i) {
    ASSERT_EQ(registry.Intern(LinePath(i, 1 + i % 5)), refs[i]) << i;
    ASSERT_EQ(registry.Get(refs[i]), LinePath(i, 1 + i % 5)) << i;
  }
  EXPECT_EQ(registry.size(), kPaths);
  EXPECT_EQ(registry.index_slots(), slots);
  EXPECT_EQ(&registry.Get(first), first_address);
}

TEST(PathRegistryTest, ApproxBytesMatchesRecomputation) {
  PathRegistry registry;
  // The O(n) walk ApproxBytes used to make, plus the index arrays.
  const auto recomputed = [&registry] {
    const std::size_t count = registry.size();
    const std::size_t chunks = (count + PathRegistry::kChunkCapacity - 1) /
                               PathRegistry::kChunkCapacity;
    std::size_t bytes = sizeof(PathRegistry) +
                        chunks * PathRegistry::kChunkCapacity * sizeof(Path);
    for (std::size_t i = 0; i < count; ++i) {
      const Path& p = registry.Get(PathRef{static_cast<std::uint32_t>(i)});
      bytes += p.nodes.capacity() * sizeof(NodeId) +
               p.links.capacity() * sizeof(LinkId);
    }
    return bytes + registry.index_slots() *
                       (sizeof(std::uint32_t) + sizeof(std::uint64_t));
  };
  EXPECT_EQ(registry.ApproxBytes(), recomputed());
  for (std::size_t i = 0; i < 2500; ++i) {
    // Mixed lengths, and a path built with spare capacity: the sum counts
    // what the stored copy holds.
    Path p = LinePath(i, 1 + i % 7);
    p.nodes.reserve(32);
    registry.Intern(p);
    registry.Intern(p);  // a duplicate adds nothing
    if (i % 97 == 0) {
      ASSERT_EQ(registry.ApproxBytes(), recomputed()) << i;
    }
  }
  EXPECT_EQ(registry.ApproxBytes(), recomputed());
}

TEST(PathRegistryTest, PlacementsSurviveNetworkSaveLoad) {
  const FatTree ft(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  const FatTreePathProvider provider(ft);

  net::Network original(ft.graph());
  std::vector<FlowId> placed;
  for (std::size_t i = 0; i < 8; ++i) {
    const NodeId src = ft.host(i % ft.host_count());
    const NodeId dst = ft.host((i + 3) % ft.host_count());
    const auto& candidates = provider.Paths(src, dst);
    ASSERT_FALSE(candidates.empty());
    flow::Flow f;
    f.src = src;
    f.dst = dst;
    f.demand = 10.0;
    f.duration = 1.0;
    placed.push_back(original.Place(std::move(f), candidates[i % 2]));
  }

  BinWriter w;
  original.SaveState(w);

  // The restored network has its own registry (refs are process-local and
  // never serialized); every placement must resolve to the same path
  // content, and interning that content must yield the restored ref.
  net::Network restored(ft.graph());
  BinReader r(w.buffer());
  restored.LoadState(r);

  ASSERT_EQ(restored.placed_flow_count(), original.placed_flow_count());
  for (const FlowId id : placed) {
    EXPECT_EQ(restored.PathOf(id), original.PathOf(id));
    EXPECT_EQ(restored.path_registry().Intern(original.PathOf(id)),
              restored.PathRefOf(id));
  }
  // 8 placements over 2 distinct candidate paths per pair: the restored
  // registry holds only the used paths, deduped.
  EXPECT_LE(restored.path_registry().size(), 8u);
}

TEST(PathRegistryTest, LoadRejectsForeignTopologySnapshot) {
  const FatTree small(FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  net::Network source(small.graph());
  BinWriter w;
  source.SaveState(w);

  // A snapshot carries the source topology's fingerprint; binding it to a
  // different graph (where interned link/node ids would be meaningless)
  // is corrupt input, not a silently corrupted registry.
  const FatTree big(FatTreeConfig{.k = 6, .link_capacity = 1000.0});
  net::Network wrong(big.graph());
  BinReader r(w.buffer());
  EXPECT_THROW(wrong.LoadState(r), CorruptInput);
  EXPECT_EQ(wrong.path_registry().size(), 0u);
}

}  // namespace
}  // namespace nu::topo
