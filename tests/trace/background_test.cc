#include "trace/background.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "trace/uniform.h"
#include "trace/yahoo_like.h"

namespace nu::trace {
namespace reference {

// Verbatim copies of the headroom helpers before the reserve row: per-link
// role lookups, a fresh feasible list and a deep Path copy per draw.

bool FitsWithHeadroom(const net::Network& network, const topo::Path& p,
                      Mbps demand, const BackgroundOptions& options) {
  for (LinkId lid : p.links) {
    const topo::Link& link = network.graph().link(lid);
    const bool touches_host =
        network.graph().node(link.src).role == topo::NodeRole::kHost ||
        network.graph().node(link.dst).role == topo::NodeRole::kHost;
    const double headroom =
        touches_host
            ? std::max(options.link_headroom, options.host_link_headroom)
            : options.link_headroom;
    const Mbps reserved = headroom * link.capacity;
    if (!ApproxGe(network.Residual(lid) - demand, reserved)) return false;
  }
  return true;
}

std::optional<topo::Path> FindRandomPathWithHeadroom(
    const net::Network& network, const topo::PathProvider& paths, NodeId src,
    NodeId dst, Mbps demand, const BackgroundOptions& options, Rng& rng) {
  const std::vector<topo::Path>& candidates = paths.Paths(src, dst);
  std::vector<const topo::Path*> feasible;
  feasible.reserve(candidates.size());
  for (const topo::Path& p : candidates) {
    if (FitsWithHeadroom(network, p, demand, options)) {
      feasible.push_back(&p);
    }
  }
  if (feasible.empty()) return std::nullopt;
  return *feasible[rng.Index(feasible.size())];
}

}  // namespace reference

namespace {

struct Fixture {
  Fixture()
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 1000.0}),
        provider(ft),
        network(ft.graph()) {}

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

TEST(BackgroundTest, ReachesModerateUtilization) {
  Fixture fx;
  YahooLikeGenerator gen(fx.ft.hosts(), Rng(1));
  BackgroundOptions options;
  options.target_utilization = 0.3;
  const BackgroundResult result =
      InjectBackground(fx.network, fx.provider, gen, options);
  EXPECT_GE(result.achieved_utilization, 0.3);
  EXPECT_GT(result.placed_flows, 0u);
  EXPECT_TRUE(fx.network.CheckInvariants());
}

TEST(BackgroundTest, NetworkStaysCongestionFree) {
  Fixture fx;
  YahooLikeGenerator gen(fx.ft.hosts(), Rng(2));
  BackgroundOptions options;
  options.target_utilization = 0.6;
  InjectBackground(fx.network, fx.provider, gen, options);
  for (const auto& link : fx.ft.graph().links()) {
    EXPECT_GE(fx.network.Residual(link.id), -1e-6);
  }
}

TEST(BackgroundTest, StopsWhenSaturated) {
  Fixture fx;
  // Huge uniform flows quickly wedge admission before 95% utilization.
  UniformSpec spec;
  spec.min_demand = 400.0;
  spec.max_demand = 900.0;
  UniformGenerator gen(fx.ft.hosts(), Rng(3), spec);
  BackgroundOptions options;
  options.target_utilization = 0.95;
  options.max_consecutive_failures = 50;
  const BackgroundResult result =
      InjectBackground(fx.network, fx.provider, gen, options);
  EXPECT_GT(result.rejected_flows, 0u);
  EXPECT_LT(result.achieved_utilization, 0.95);
}

TEST(BackgroundTest, DeterministicForSeed) {
  Fixture a, b;
  YahooLikeGenerator ga(a.ft.hosts(), Rng(7));
  YahooLikeGenerator gb(b.ft.hosts(), Rng(7));
  BackgroundOptions options;
  options.target_utilization = 0.4;
  const auto ra = InjectBackground(a.network, a.provider, ga, options);
  const auto rb = InjectBackground(b.network, b.provider, gb, options);
  EXPECT_EQ(ra.placed_flows, rb.placed_flows);
  EXPECT_DOUBLE_EQ(ra.achieved_utilization, rb.achieved_utilization);
}

TEST(BackgroundTest, ZeroTargetPlacesNothing) {
  Fixture fx;
  YahooLikeGenerator gen(fx.ft.hosts(), Rng(4));
  BackgroundOptions options;
  options.target_utilization = 0.0;
  const auto result = InjectBackground(fx.network, fx.provider, gen, options);
  EXPECT_EQ(result.placed_flows, 0u);
}

// The reserve-row draw picks the same path and consumes the same RNG values
// as the per-link lookup it replaced, across headroom tiers and as the
// fabric fills up.
TEST(ChurnDrawTest, MatchesReferenceDraws) {
  struct Headroom {
    double link;
    double host;
  };
  const std::vector<Headroom> settings = {
      {0.0, 0.0}, {0.1, 0.0}, {0.05, 0.3}, {0.3, 0.1}};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const Headroom& h : settings) {
      // Thin links, so the draws saturate the fabric within the loop.
      const topo::FatTree ft(
          topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
      const topo::FatTreePathProvider provider(ft);
      net::Network network(ft.graph());
      BackgroundOptions options;
      options.link_headroom = h.link;
      options.host_link_headroom = h.host;
      const std::vector<Mbps> reserve = HeadroomReserve(ft.graph(), options);
      YahooLikeGenerator gen(ft.hosts(), Rng(seed));
      Rng want_rng(seed + 100);
      Rng got_rng(seed + 100);
      std::size_t placed = 0;
      std::size_t missed = 0;
      for (int draw = 0; draw < 600; ++draw) {
        const FlowSpec spec = gen.Next();
        const auto want = reference::FindRandomPathWithHeadroom(
            network, provider, spec.src, spec.dst, spec.demand,
            options, want_rng);
        const topo::Path* got = FindRandomPathWithHeadroom(
            network, provider, spec.src, spec.dst, spec.demand, reserve,
            got_rng);
        ASSERT_EQ(got != nullptr, want.has_value())
            << "seed " << seed << " draw " << draw;
        ASSERT_TRUE(got_rng.GetState() == want_rng.GetState())
            << "seed " << seed << " draw " << draw;
        if (got == nullptr) {
          ++missed;
          continue;
        }
        ASSERT_EQ(*got, *want) << "seed " << seed << " draw " << draw;
        flow::Flow f;
        f.src = spec.src;
        f.dst = spec.dst;
        f.demand = spec.demand;
        f.duration = spec.duration;
        network.Place(std::move(f), *got);
        ++placed;
      }
      EXPECT_GT(placed, 0u);
      EXPECT_GT(missed, 0u) << "seed " << seed << " never saturated";
    }
  }
}

}  // namespace
}  // namespace nu::trace
