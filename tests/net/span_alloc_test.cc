// Allocation guard for the link-flow read path: LinkFlowIds (the span
// primitive) and the derived FlowCountOnLink / FlowUsesLink helpers must
// not allocate per call — that is the point of storing link membership as
// canonically sorted id vectors served by reference. Copying a span into a
// vector of FlowIds is exercised as a positive control to prove the counter
// sees allocations. The placement
// path is guarded the same way: Graph::IsValidPath, a warmed
// PathProvider::Paths hit and a warmed churn draw allocate nothing.
//
// The counting operator new/delete below replaces the global ones for this
// whole test binary, which is why these tests live in their own binary
// (test_span_alloc) rather than inside test_net.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>

#include "common/rng.h"
#include "net/network.h"
#include "net/overlay.h"
#include "topo/fat_tree.h"
#include "topo/ksp.h"
#include "topo/path_provider.h"
#include "trace/background.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nu::net {
namespace {

struct Fixture {
  Fixture() : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 1000.0}),
              provider(ft),
              network(ft.graph()) {
    for (std::size_t i = 0; i < 16; ++i) {
      const NodeId src = ft.host(i % ft.host_count());
      const NodeId dst = ft.host((i + 5) % ft.host_count());
      const auto& paths = provider.Paths(src, dst);
      flow::Flow f;
      f.src = src;
      f.dst = dst;
      f.demand = 5.0;
      f.duration = 1.0;
      last = network.Place(std::move(f), paths[i % paths.size()]);
      used = paths[i % paths.size()].links[0];
    }
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  Network network;
  FlowId last;
  LinkId used;
};

TEST(SpanAllocTest, LinkFlowReadsDoNotAllocate) {
  Fixture fx;
  const topo::Graph& graph = fx.network.graph();

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < graph.link_count(); ++i) {
    const LinkId link{static_cast<LinkId::rep_type>(i)};
    const std::span<const std::uint32_t> ids = fx.network.LinkFlowIds(link);
    touched += ids.size();
    touched += fx.network.FlowCountOnLink(link);
    if (fx.network.FlowUsesLink(fx.last, link)) ++touched;
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "link-flow read path allocated";
  EXPECT_GT(touched, 0u);  // the loop actually read occupied links
}

TEST(SpanAllocTest, OverlayPassThroughReadsDoNotAllocate) {
  Fixture fx;
  // An overlay with no patches serves base spans directly; read-only
  // probing of untouched links must stay allocation-free too.
  NetworkOverlay overlay(fx.network);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < fx.network.graph().link_count(); ++i) {
    const LinkId link{static_cast<LinkId::rep_type>(i)};
    touched += overlay.LinkFlowIds(link).size();
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "overlay pass-through read allocated";
  EXPECT_GT(touched, 0u);
}

TEST(SpanAllocTest, IsValidPathDoesNotAllocate) {
  Fixture fx;
  const topo::Graph& graph = fx.ft.graph();
  const auto& short_paths = fx.provider.Paths(fx.ft.host(0), fx.ft.host(15));
  // A ring long enough for the sorted-buffer check; warm its buffer once.
  topo::Graph ring;
  for (int i = 0; i < 40; ++i) ring.AddNode(topo::NodeRole::kGeneric);
  for (NodeId::rep_type i = 0; i < 40; ++i) {
    ring.AddBidirectional(NodeId{i}, NodeId{(i + 1) % 40}, 100.0);
  }
  const std::vector<topo::Path> long_paths =
      topo::YenKShortestPaths(ring, NodeId{0}, NodeId{19}, 2);
  ASSERT_TRUE(ring.IsValidPath(long_paths.front()));

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::size_t valid = 0;
  for (int rep = 0; rep < 10; ++rep) {
    for (const topo::Path& p : short_paths) valid += graph.IsValidPath(p);
    for (const topo::Path& p : long_paths) valid += ring.IsValidPath(p);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "IsValidPath allocated";
  EXPECT_EQ(valid, 10 * (short_paths.size() + long_paths.size()));
}

TEST(SpanAllocTest, WarmedPathsHitDoesNotAllocate) {
  Fixture fx;
  const NodeId src = fx.ft.host(1);
  const NodeId dst = fx.ft.host(14);
  const std::vector<topo::Path>* first = &fx.provider.Paths(src, dst);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  bool same = true;
  for (int rep = 0; rep < 100; ++rep) {
    same = same && &fx.provider.Paths(src, dst) == first;
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "Paths() hit allocated";
  EXPECT_TRUE(same);
}

TEST(SpanAllocTest, WarmedChurnDrawDoesNotAllocate) {
  Fixture fx;
  const std::vector<Mbps> reserve =
      trace::HeadroomReserve(fx.ft.graph(), trace::BackgroundOptions{});
  Rng rng(3);
  const NodeId src = fx.ft.host(2);
  const NodeId dst = fx.ft.host(13);
  ASSERT_NE(trace::FindRandomPathWithHeadroom(fx.network, fx.provider, src,
                                              dst, 1.0, reserve, rng),
            nullptr);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::size_t found = 0;
  for (int rep = 0; rep < 100; ++rep) {
    found += trace::FindRandomPathWithHeadroom(fx.network, fx.provider, src,
                                               dst, 1.0, reserve,
                                               rng) != nullptr;
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "churn draw allocated";
  EXPECT_EQ(found, 100u);
}

TEST(SpanAllocTest, CounterSeesMaterializingRead) {
  Fixture fx;
  // Positive control: materializing the span builds a vector, so the
  // counter must tick — proving the zero readings above are meaningful.
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::vector<FlowId> flows;
  for (const std::uint32_t rep : fx.network.LinkFlowIds(fx.used)) {
    flows.push_back(FlowId{rep});
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_FALSE(flows.empty());
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace nu::net
