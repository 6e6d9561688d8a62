#include "topo/graph.h"

#include <gtest/gtest.h>

#include <array>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "topo/ksp.h"

namespace nu::topo {
namespace {

Graph Triangle() {
  Graph g;
  const NodeId a = g.AddNode(NodeRole::kGeneric, "a");
  const NodeId b = g.AddNode(NodeRole::kGeneric, "b");
  const NodeId c = g.AddNode(NodeRole::kGeneric, "c");
  g.AddBidirectional(a, b, 100.0);
  g.AddBidirectional(b, c, 100.0);
  g.AddBidirectional(c, a, 100.0);
  return g;
}

TEST(GraphTest, AddNodesAssignsDenseIds) {
  Graph g;
  EXPECT_EQ(g.AddNode(NodeRole::kHost).value(), 0u);
  EXPECT_EQ(g.AddNode(NodeRole::kEdgeSwitch).value(), 1u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(GraphTest, NodeRolesAndNames) {
  Graph g;
  const NodeId h = g.AddNode(NodeRole::kHost, "my-host");
  EXPECT_EQ(g.node(h).role, NodeRole::kHost);
  EXPECT_EQ(g.node(h).name, "my-host");
  const NodeId anon = g.AddNode(NodeRole::kCoreSwitch);
  EXPECT_EQ(g.node(anon).name, "core-1");
}

TEST(GraphTest, LinksDirectedWithCapacity) {
  Graph g;
  const NodeId a = g.AddNode(NodeRole::kGeneric);
  const NodeId b = g.AddNode(NodeRole::kGeneric);
  const LinkId l = g.AddLink(a, b, 500.0);
  EXPECT_EQ(g.link(l).src, a);
  EXPECT_EQ(g.link(l).dst, b);
  EXPECT_DOUBLE_EQ(g.link(l).capacity, 500.0);
  EXPECT_EQ(g.OutLinks(a).size(), 1u);
  EXPECT_EQ(g.InLinks(b).size(), 1u);
  EXPECT_EQ(g.OutLinks(b).size(), 0u);
}

TEST(GraphTest, BidirectionalAddsTwo) {
  Graph g;
  const NodeId a = g.AddNode(NodeRole::kGeneric);
  const NodeId b = g.AddNode(NodeRole::kGeneric);
  const auto [fwd, rev] = g.AddBidirectional(a, b, 100.0);
  EXPECT_EQ(g.link_count(), 2u);
  EXPECT_EQ(g.link(fwd).src, a);
  EXPECT_EQ(g.link(rev).src, b);
}

TEST(GraphTest, FindLink) {
  const Graph g = Triangle();
  const NodeId a{0}, b{1};
  const LinkId ab = g.FindLink(a, b);
  ASSERT_TRUE(ab.valid());
  EXPECT_EQ(g.link(ab).dst, b);
  // No self link.
  EXPECT_FALSE(g.FindLink(a, a).valid());
}

TEST(GraphTest, NodesWithRole) {
  Graph g;
  g.AddNode(NodeRole::kHost);
  g.AddNode(NodeRole::kCoreSwitch);
  g.AddNode(NodeRole::kHost);
  EXPECT_EQ(g.NodesWithRole(NodeRole::kHost).size(), 2u);
  EXPECT_EQ(g.NodesWithRole(NodeRole::kAggSwitch).size(), 0u);
}

TEST(GraphTest, MakePathAndValidate) {
  const Graph g = Triangle();
  const std::array<NodeId, 3> seq{NodeId{0}, NodeId{1}, NodeId{2}};
  const Path p = g.MakePath(seq);
  EXPECT_TRUE(g.IsValidPath(p));
  EXPECT_EQ(p.hop_count(), 2u);
  EXPECT_EQ(p.source(), NodeId{0});
  EXPECT_EQ(p.destination(), NodeId{2});
}

TEST(GraphTest, InvalidPaths) {
  const Graph g = Triangle();
  Path p;
  EXPECT_FALSE(g.IsValidPath(p));  // empty

  // Repeated node.
  const std::array<NodeId, 3> seq{NodeId{0}, NodeId{1}, NodeId{2}};
  Path valid = g.MakePath(seq);
  Path repeated = valid;
  repeated.nodes.push_back(NodeId{0});
  repeated.links.push_back(g.FindLink(NodeId{2}, NodeId{0}));
  EXPECT_FALSE(g.IsValidPath(repeated));

  // Mismatched link.
  Path broken = valid;
  broken.links[0] = g.FindLink(NodeId{1}, NodeId{0});
  EXPECT_FALSE(g.IsValidPath(broken));
}

/// A bidirectional ring of `n` nodes, 0 - 1 - ... - (n-1) - 0.
Graph Ring(std::size_t n) {
  Graph g;
  for (std::size_t i = 0; i < n; ++i) g.AddNode(NodeRole::kGeneric);
  for (std::size_t i = 0; i < n; ++i) {
    g.AddBidirectional(NodeId{static_cast<NodeId::rep_type>(i)},
                       NodeId{static_cast<NodeId::rep_type>((i + 1) % n)},
                       100.0);
  }
  return g;
}

/// Ring walk over `count` nodes starting at `start`, one step per hop.
Path RingWalk(const Graph& g, std::size_t start, std::size_t count) {
  std::vector<NodeId> seq;
  for (std::size_t i = 0; i < count; ++i) {
    seq.push_back(
        NodeId{static_cast<NodeId::rep_type>((start + i) % g.node_count())});
  }
  Path p;
  p.nodes = seq;
  for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
    p.links.push_back(g.FindLink(seq[i], seq[i + 1]));
  }
  return p;
}

TEST(GraphTest, RepeatedNodesRejectedAtAnyDistance) {
  const Graph small = Ring(4);
  EXPECT_TRUE(small.IsValidPath(RingWalk(small, 1, 4)));
  // A repeat at both ends: 1 2 3 0 1.
  EXPECT_FALSE(small.IsValidPath(RingWalk(small, 1, 5)));
  // Repeats of non-adjacent nodes: 1 2 3 0 1 2.
  EXPECT_FALSE(small.IsValidPath(RingWalk(small, 1, 6)));
  // There and back: 0 1 0.
  Path back = RingWalk(small, 0, 2);
  back.nodes.push_back(NodeId{0});
  back.links.push_back(small.FindLink(NodeId{1}, NodeId{0}));
  EXPECT_FALSE(small.IsValidPath(back));

  // The same shapes past the pairwise-scan length.
  const Graph big = Ring(40);
  EXPECT_TRUE(big.IsValidPath(RingWalk(big, 5, 40)));
  EXPECT_FALSE(big.IsValidPath(RingWalk(big, 5, 41)));
  EXPECT_FALSE(big.IsValidPath(RingWalk(big, 5, 60)));
}

TEST(GraphTest, LongKspPathsValidate) {
  const Graph g = Ring(40);
  const std::vector<Path> paths = YenKShortestPaths(g, NodeId{0}, NodeId{19}, 2);
  ASSERT_EQ(paths.size(), 2u);
  for (const Path& p : paths) {
    EXPECT_GT(p.nodes.size(), 16u);
    EXPECT_TRUE(g.IsValidPath(p));
  }
}

/// The hash-set check IsValidPath made before it stopped allocating.
bool ReferenceIsValidPath(const Graph& g, const Path& path) {
  if (path.nodes.empty()) return false;
  if (path.links.size() + 1 != path.nodes.size()) return false;
  std::unordered_set<NodeId::rep_type> seen;
  for (NodeId n : path.nodes) {
    if (n.value() >= g.node_count()) return false;
    if (!seen.insert(n.value()).second) return false;  // repeated node
  }
  for (std::size_t i = 0; i < path.links.size(); ++i) {
    const LinkId lid = path.links[i];
    if (lid.value() >= g.link_count()) return false;
    const Link& l = g.link(lid);
    if (l.src != path.nodes[i] || l.dst != path.nodes[i + 1]) return false;
  }
  return true;
}

TEST(GraphTest, IsValidPathMatchesHashSetReference) {
  // Random walks on a ring with chords revisit nodes at every distance;
  // lengths straddle the pairwise-scan limit.
  Graph g = Ring(30);
  for (NodeId::rep_type i = 0; i < 30; i += 3) {
    g.AddBidirectional(NodeId{i}, NodeId{(i + 11) % 30}, 100.0);
  }
  Rng rng(17);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    Path p;
    p.nodes.push_back(NodeId{static_cast<NodeId::rep_type>(rng.Index(30))});
    const std::size_t hops = rng.Index(40);
    for (std::size_t h = 0; h < hops; ++h) {
      const auto out = g.OutLinks(p.nodes.back());
      const LinkId lid = out[rng.Index(out.size())];
      p.links.push_back(lid);
      p.nodes.push_back(g.link(lid).dst);
    }
    if (trial % 5 == 0 && !p.links.empty()) {
      // A corrupted link or node, so rejections for other reasons mix in.
      p.links[rng.Index(p.links.size())] = LinkId{0};
    }
    const bool expected = ReferenceIsValidPath(g, p);
    EXPECT_EQ(g.IsValidPath(p), expected) << "trial " << trial;
    if (expected) ++accepted;
  }
  EXPECT_GT(accepted, 100u);
}

TEST(GraphTest, SingleNodePathValid) {
  const Graph g = Triangle();
  Path p;
  p.nodes.push_back(NodeId{1});
  EXPECT_TRUE(g.IsValidPath(p));
  EXPECT_TRUE(p.empty());
}

TEST(GraphDeathTest, RejectsSelfLink) {
  Graph g;
  const NodeId a = g.AddNode(NodeRole::kGeneric);
  EXPECT_DEATH(g.AddLink(a, a, 10.0), "Precondition");
}

TEST(GraphDeathTest, RejectsZeroCapacity) {
  Graph g;
  const NodeId a = g.AddNode(NodeRole::kGeneric);
  const NodeId b = g.AddNode(NodeRole::kGeneric);
  EXPECT_DEATH(g.AddLink(a, b, 0.0), "Precondition");
}

}  // namespace
}  // namespace nu::topo
