#include "trace/background.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/admission.h"
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

// The injection loop before its utilization bound, verbatim (calls into
// the library qualified), with its file-local helpers: it measures
// utilization over every link before each draw.

bool Fits(const Mbps* residual, std::span<const Mbps> reserve,
          const topo::Path& p, Mbps demand) {
  for (LinkId lid : p.links) {
    if (!ApproxGe(residual[lid.value()] - demand, reserve[lid.value()])) {
      return false;
    }
  }
  return true;
}

const topo::Path* FindPathWithHeadroom(const net::Network& network,
                                       const topo::PathProvider& paths,
                                       NodeId src, NodeId dst, Mbps demand,
                                       std::span<const Mbps> reserve) {
  const Mbps* residual = network.ResidualData();
  const topo::Path* best = nullptr;
  Mbps best_bottleneck = 0.0;
  for (const topo::Path& p : paths.Paths(src, dst)) {
    if (!Fits(residual, reserve, p, demand)) continue;
    Mbps bottleneck = std::numeric_limits<double>::infinity();
    for (LinkId lid : p.links) {
      bottleneck = std::min(bottleneck, residual[lid.value()]);
    }
    if (best == nullptr || bottleneck > best_bottleneck) {
      best = &p;
      best_bottleneck = bottleneck;
    }
  }
  return best;
}

BackgroundResult InjectBackground(net::Network& network,
                                  const topo::PathProvider& paths,
                                  TrafficGenerator& generator,
                                  const BackgroundOptions& options) {
  NU_EXPECTS(options.target_utilization >= 0.0 &&
             options.target_utilization < 1.0);
  NU_EXPECTS(options.link_headroom >= 0.0 && options.link_headroom < 1.0);
  BackgroundResult result;
  std::size_t consecutive_failures = 0;
  Rng path_rng(options.random_path_seed);
  const std::vector<Mbps> reserve =
      trace::HeadroomReserve(network.graph(), options);
  const auto measured_utilization = [&] {
    return options.target_fabric_utilization ? network.FabricUtilization()
                                             : network.AverageUtilization();
  };

  while (measured_utilization() < options.target_utilization &&
         result.placed_flows < options.max_flows &&
         consecutive_failures < options.max_consecutive_failures) {
    const FlowSpec spec = generator.Next();
    const topo::Path* path = nullptr;
    if (options.random_path_seed != 0) {
      path = trace::FindRandomPathWithHeadroom(network, paths, spec.src,
                                               spec.dst, spec.demand, reserve,
                                               path_rng);
    } else if (options.link_headroom > 0.0 ||
               options.host_link_headroom > 0.0) {
      path = FindPathWithHeadroom(network, paths, spec.src, spec.dst,
                                  spec.demand, reserve);
    } else {
      path = net::FindFeasiblePathPtr(network, paths, spec.src, spec.dst,
                                      spec.demand, options.path_selection);
    }
    if (path == nullptr) {
      ++result.rejected_flows;
      ++consecutive_failures;
      continue;
    }
    consecutive_failures = 0;
    flow::Flow f;
    f.src = spec.src;
    f.dst = spec.dst;
    f.demand = spec.demand;
    f.duration = spec.duration;
    f.origin = flow::FlowOrigin::kBackground;
    network.Place(std::move(f), *path);
    ++result.placed_flows;
  }

  result.achieved_utilization = measured_utilization();
  return result;
}

}  // namespace reference

namespace {

struct Fixture {
  explicit Fixture(double fabric_capacity_factor = 1.0)
      : ft(topo::FatTreeConfig{
            .k = 4,
            .link_capacity = 1000.0,
            .fabric_capacity_factor = fabric_capacity_factor}),
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

// The bounded loop measures utilization over every link only once its
// bound reaches the target; it must stop at the same flow as the loop that
// measured before every draw, so both place the same flows on the same
// paths, reject the same number and report the same utilization bit for
// bit. Covers both measures (fabric links and every link), widest,
// first-fit, headroom and random-path placement, the flow cap, saturation
// and fabric links thinner than host links.
TEST(BackgroundTest, BoundedLoopMatchesMeasuringEveryDraw) {
  struct Case {
    double target;
    bool fabric;
    double link_headroom;
    double host_headroom;
    std::uint64_t random_path_seed;
    net::PathSelection selection;
    std::size_t max_flows;
    double fabric_capacity_factor;
  };
  const net::PathSelection widest = net::PathSelection::kWidest;
  const std::vector<Case> cases = {
      {0.0, false, 0.0, 0.0, 0, widest, 1'000'000, 1.0},
      {0.3, false, 0.0, 0.0, 0, widest, 1'000'000, 1.0},
      {0.7, false, 0.0, 0.0, 0, widest, 1'000'000, 1.0},
      {0.7, true, 0.0, 0.0, 0, widest, 1'000'000, 1.0},
      {0.55, true, 0.0, 0.0, 0, net::PathSelection::kFirstFit, 1'000'000,
       1.0},
      {0.95, true, 0.0, 0.0, 0, widest, 1'000'000, 1.0},
      {0.6, true, 0.1, 0.3, 0, widest, 1'000'000, 1.0},
      {0.5, false, 0.05, 0.0, 0, widest, 1'000'000, 1.0},
      {0.65, true, 0.1, 0.2, 17, widest, 1'000'000, 1.0},
      {0.4, false, 0.0, 0.0, 5, widest, 1'000'000, 1.0},
      {0.9, true, 0.0, 0.0, 0, widest, 40, 1.0},
      {0.6, true, 0.0, 0.0, 0, widest, 1'000'000, 0.5},
      {0.5, false, 0.0, 0.0, 9, widest, 1'000'000, 0.5},
  };
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const Case& k = cases[c];
      BackgroundOptions options;
      options.target_utilization = k.target;
      options.target_fabric_utilization = k.fabric;
      options.link_headroom = k.link_headroom;
      options.host_link_headroom = k.host_headroom;
      options.random_path_seed = k.random_path_seed;
      options.path_selection = k.selection;
      options.max_flows = k.max_flows;
      options.max_consecutive_failures = 60;
      Fixture want_fx(k.fabric_capacity_factor);
      Fixture got_fx(k.fabric_capacity_factor);
      YahooLikeGenerator want_gen(want_fx.ft.hosts(), Rng(seed));
      YahooLikeGenerator got_gen(got_fx.ft.hosts(), Rng(seed));
      const BackgroundResult want = reference::InjectBackground(
          want_fx.network, want_fx.provider, want_gen, options);
      const BackgroundResult got = InjectBackground(
          got_fx.network, got_fx.provider, got_gen, options);
      const std::string where =
          "seed " + std::to_string(seed) + " case " + std::to_string(c);
      ASSERT_EQ(got.placed_flows, want.placed_flows) << where;
      ASSERT_EQ(got.rejected_flows, want.rejected_flows) << where;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.achieved_utilization),
                std::bit_cast<std::uint64_t>(want.achieved_utilization))
          << where;
      const std::vector<FlowId> ids = want_fx.network.PlacedFlows();
      ASSERT_EQ(got_fx.network.PlacedFlows(), ids) << where;
      for (const FlowId id : ids) {
        const flow::Flow& w = want_fx.network.FlowOf(id);
        const flow::Flow& g = got_fx.network.FlowOf(id);
        ASSERT_EQ(g.src, w.src) << where;
        ASSERT_EQ(g.dst, w.dst) << where;
        ASSERT_EQ(g.demand, w.demand) << where;
        ASSERT_EQ(got_fx.network.PathOf(id), want_fx.network.PathOf(id))
            << where;
      }
      // Both loops drew the same number of flows.
      EXPECT_EQ(got_gen.Next().demand, want_gen.Next().demand) << where;
    }
  }
}

}  // namespace
}  // namespace nu::trace
