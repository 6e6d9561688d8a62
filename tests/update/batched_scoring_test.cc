// Differential tests pinning the quick cost estimator, the admission scans
// and the reroute scan — each of which reads the view's flat residual row
// in place — to the historical scalar implementations, bit for bit. The
// reference copies below are the pre-batching code verbatim (per-call
// vector scratch, early-exit candidate loop, per-link virtual reads) and
// the reroute scan from before residual rows reached overlays (virtual
// Residual() plus a FlowUsesLink list search for self-release); the
// production paths must reproduce their doubles and winners exactly — the
// probe-cost cache and the cheapest-candidate scan both assume a score
// computed twice is the same double, and the golden layout tests assume
// admission tie-breaks never move. Every EXPECT on a double here is exact
// equality on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "net/admission.h"
#include "net/network.h"
#include "net/overlay.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "update/cost_estimate.h"
#include "update/migration.h"
#include "update/update_event.h"

namespace nu::update {
namespace {

// --- Reference: the pre-batching scalar estimator, copied verbatim -------

namespace reference {

// The bottleneck helper the pre-batching admission loops called, verbatim.
Mbps BottleneckResidual(const net::NetworkView& network,
                        const topo::Path& path) {
  Mbps bottleneck = std::numeric_limits<double>::infinity();
  for (LinkId lid : path.links) {
    bottleneck = std::min(bottleneck, network.Residual(lid));
  }
  return bottleneck;
}

class ResidualScratch {
 public:
  explicit ResidualScratch(const net::NetworkView& network)
      : network_(&network),
        value_(network.graph().link_count(), 0.0),
        known_(network.graph().link_count(), 0) {}

  Mbps Get(LinkId lid) {
    const auto i = lid.value();
    if (known_[i] == 0) {
      value_[i] = network_->Residual(lid);
      known_[i] = 1;
    }
    return value_[i];
  }

 private:
  const net::NetworkView* network_;
  std::vector<Mbps> value_;
  std::vector<char> known_;
};

struct PathDeficit {
  Mbps deficit = 0.0;
  Mbps movable = 0.0;
};

PathDeficit DeficitOn(const net::NetworkView& network,
                      ResidualScratch& residuals, const topo::Path& path,
                      Mbps demand) {
  PathDeficit result;
  for (LinkId lid : path.links) {
    const Mbps residual = residuals.Get(lid);
    if (ApproxGe(residual, demand)) continue;
    const Mbps link_deficit = demand - residual;
    if (link_deficit > result.deficit) {
      result.deficit = link_deficit;
      const topo::Link& link = network.graph().link(lid);
      result.movable = link.capacity - residual;
    }
  }
  return result;
}

QuickCostResult QuickCostEstimate(const net::NetworkView& network,
                                  const topo::PathProvider& paths,
                                  const UpdateEvent& event) {
  QuickCostResult result;
  ResidualScratch residuals(network);
  for (const flow::Flow& f : event.flows()) {
    const std::vector<topo::Path>& candidates = paths.Paths(f.src, f.dst);
    if (candidates.empty()) {
      ++result.likely_blocked;
      continue;
    }
    Mbps best_deficit = std::numeric_limits<double>::infinity();
    Mbps movable_at_best = 0.0;
    for (const topo::Path& p : candidates) {
      const PathDeficit d = DeficitOn(network, residuals, p, f.demand);
      if (d.deficit < best_deficit) {
        best_deficit = d.deficit;
        movable_at_best = d.movable;
        if (best_deficit <= kBandwidthEpsilon) break;  // fits outright
      }
    }
    if (best_deficit <= kBandwidthEpsilon) continue;
    ++result.flows_with_deficit;
    result.deficit_sum += best_deficit;
    if (best_deficit > movable_at_best + kBandwidthEpsilon) {
      ++result.likely_blocked;
    }
  }
  return result;
}

Mbps QuickCostScore(const net::NetworkView& network,
                    const topo::PathProvider& paths,
                    const UpdateEvent& event) {
  const QuickCostResult estimate =
      reference::QuickCostEstimate(network, paths, event);
  Mbps score = estimate.deficit_sum;
  if (estimate.likely_blocked > 0 && event.flow_count() > 0) {
    const Mbps mean_demand =
        event.TotalDemand() / static_cast<double>(event.flow_count());
    score += 10.0 * mean_demand * static_cast<double>(estimate.likely_blocked);
  }
  return score;
}

// Pre-batching admission loops, copied verbatim.

std::optional<topo::Path> FindFeasiblePath(const net::NetworkView& network,
                                           const topo::PathProvider& paths,
                                           NodeId src, NodeId dst, Mbps demand,
                                           net::PathSelection selection) {
  const std::vector<topo::Path>& candidates = paths.Paths(src, dst);
  const topo::Path* best = nullptr;
  Mbps best_bottleneck = 0.0;
  Mbps best_total = 0.0;
  auto total_residual = [&network](const topo::Path& p) {
    Mbps total = 0.0;
    for (LinkId lid : p.links) total += network.Residual(lid);
    return total;
  };
  for (const topo::Path& p : candidates) {
    if (!network.CanPlace(demand, p)) continue;
    switch (selection) {
      case net::PathSelection::kFirstFit:
        return p;
      case net::PathSelection::kWidest: {
        const Mbps b = BottleneckResidual(network, p);
        const Mbps t = total_residual(p);
        if (best == nullptr || b > best_bottleneck ||
            (b == best_bottleneck && t > best_total)) {
          best = &p;
          best_bottleneck = b;
          best_total = t;
        }
        break;
      }
      case net::PathSelection::kBestFit: {
        const Mbps b = BottleneckResidual(network, p);
        const Mbps t = total_residual(p);
        if (best == nullptr || b < best_bottleneck ||
            (b == best_bottleneck && t < best_total)) {
          best = &p;
          best_bottleneck = b;
          best_total = t;
        }
        break;
      }
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

const topo::Path& LeastCongestedPath(const net::NetworkView& network,
                                     const topo::PathProvider& paths,
                                     NodeId src, NodeId dst, Mbps demand) {
  const std::vector<topo::Path>& candidates = paths.Paths(src, dst);
  const topo::Path* best = &candidates.front();
  std::size_t best_congested = network.CongestedLinks(demand, *best).size();
  Mbps best_bottleneck = BottleneckResidual(network, *best);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const topo::Path& p = candidates[i];
    const std::size_t congested = network.CongestedLinks(demand, p).size();
    const Mbps bottleneck = BottleneckResidual(network, p);
    if (congested < best_congested ||
        (congested == best_congested && bottleneck > best_bottleneck)) {
      best = &p;
      best_congested = congested;
      best_bottleneck = bottleneck;
    }
  }
  return *best;
}

// Reroute scan before overlays served residual rows, copied verbatim.

const topo::Path* FindRerouteTargetPtr(const net::NetworkView& network,
                                       const topo::PathProvider& paths,
                                       FlowId flow,
                                       std::span<const char> forbidden_mask) {
  const flow::Flow& f = network.FlowOf(flow);
  const topo::Path& current = network.PathOf(flow);
  const std::vector<topo::Path>& candidates = paths.Paths(f.src, f.dst);

  const topo::Path* best = nullptr;
  Mbps best_bottleneck = 0.0;
  for (const topo::Path& candidate : candidates) {
    if (candidate == current) continue;
    bool usable = true;
    Mbps bottleneck = std::numeric_limits<double>::infinity();
    for (LinkId lid : candidate.links) {
      if (!forbidden_mask.empty() && forbidden_mask[lid.value()] != 0) {
        usable = false;
        break;
      }
      // Self-release: the flow's own occupancy on shared links counts as
      // available when it moves.
      Mbps residual = network.Residual(lid);
      if (network.FlowUsesLink(flow, lid)) residual += f.demand;
      if (!ApproxGe(residual, f.demand)) {
        usable = false;
        break;
      }
      bottleneck = std::min(bottleneck, residual);
    }
    if (!usable) continue;
    if (best == nullptr || bottleneck > best_bottleneck) {
      best = &candidate;
      best_bottleneck = bottleneck;
    }
  }
  return best;
}

}  // namespace reference

// --- Randomized fixture ---------------------------------------------------

/// Fat tree with randomized congestion. ForcePlace drives some links all
/// the way into overcommit so the estimator's structural-blocked branch and
/// negative residuals are exercised, not just mild deficits.
struct RandomFixture {
  explicit RandomFixture(std::uint64_t seed)
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        network(ft.graph()),
        rng(seed) {
    const std::size_t hosts = ft.host_count();
    const int placements = 20 + static_cast<int>(rng.Index(20));
    for (int i = 0; i < placements; ++i) {
      flow::Flow f;
      f.src = ft.host(rng.Index(hosts));
      do {
        f.dst = ft.host(rng.Index(hosts));
      } while (f.dst == f.src);
      f.demand = rng.Uniform(5.0, 70.0);
      f.duration = 100.0;
      const auto& paths = provider.Paths(f.src, f.dst);
      const topo::Path& p = paths[rng.Index(paths.size())];
      if (i % 4 == 0) {
        network.ForcePlace(std::move(f), p);  // may overcommit
      } else if (network.CanPlace(f.demand, p)) {
        network.Place(std::move(f), p);
      }
    }
  }

  UpdateEvent RandomEvent(std::uint64_t id) {
    const std::size_t hosts = ft.host_count();
    std::vector<flow::Flow> flows;
    const std::size_t n = 1 + rng.Index(5);
    for (std::size_t j = 0; j < n; ++j) {
      flow::Flow f;
      f.src = ft.host(rng.Index(hosts));
      do {
        f.dst = ft.host(rng.Index(hosts));
      } while (f.dst == f.src);
      f.demand = rng.Uniform(1.0, 90.0);
      f.duration = 5.0;
      flows.push_back(f);
    }
    return UpdateEvent(EventId{id}, 0.0, std::move(flows));
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
  Rng rng;
};

void ExpectSameEstimate(const net::NetworkView& view, RandomFixture& fx,
                        const UpdateEvent& event) {
  const QuickCostResult ref =
      reference::QuickCostEstimate(view, fx.provider, event);
  const QuickCostResult got = QuickCostEstimate(view, fx.provider, event);
  EXPECT_EQ(got.deficit_sum, ref.deficit_sum);  // exact, not DOUBLE_EQ
  EXPECT_EQ(got.likely_blocked, ref.likely_blocked);
  EXPECT_EQ(got.flows_with_deficit, ref.flows_with_deficit);
  EXPECT_EQ(QuickCostScore(view, fx.provider, event),
            reference::QuickCostScore(view, fx.provider, event));
}

TEST(BatchedScoringTest, BitIdenticalToScalarReferenceOnFlatNetwork) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomFixture fx(seed);
    ASSERT_NE(fx.network.ResidualData(), nullptr);  // SoA fast path active
    for (std::uint64_t e = 1; e <= 20; ++e) {
      ExpectSameEstimate(fx.network, fx, fx.RandomEvent(e));
    }
  }
}

TEST(BatchedScoringTest, BitIdenticalToScalarReferenceOnOverlay) {
  for (std::uint64_t seed = 101; seed <= 104; ++seed) {
    RandomFixture fx(seed);
    net::NetworkOverlay overlay(fx.network);
    // Dirty a few links so the overlay's residuals differ from the base
    // (the estimator must read the overlay's row, not the base array).
    for (int i = 0; i < 4; ++i) {
      flow::Flow f;
      f.src = fx.ft.host(fx.rng.Index(fx.ft.host_count()));
      do {
        f.dst = fx.ft.host(fx.rng.Index(fx.ft.host_count()));
      } while (f.dst == f.src);
      f.demand = 10.0;
      f.duration = 5.0;
      const auto& paths = fx.provider.Paths(f.src, f.dst);
      const topo::Path& p = paths[fx.rng.Index(paths.size())];
      if (overlay.CanPlace(f.demand, p)) overlay.Place(std::move(f), p);
    }
    ASSERT_NE(overlay.ResidualData(), fx.network.ResidualData())
        << "the dirtied overlay must serve its own row";
    for (std::uint64_t e = 1; e <= 12; ++e) {
      ExpectSameEstimate(overlay, fx, fx.RandomEvent(e));
    }
  }
}

TEST(BatchedScoringTest, AdmissionMatchesReferenceLoops) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    RandomFixture fx(seed);
    const std::size_t hosts = fx.ft.host_count();
    for (int trial = 0; trial < 60; ++trial) {
      const NodeId src = fx.ft.host(fx.rng.Index(hosts));
      NodeId dst = src;
      while (dst == src) dst = fx.ft.host(fx.rng.Index(hosts));
      const Mbps demand = fx.rng.Uniform(1.0, 110.0);  // sometimes infeasible
      for (const net::PathSelection sel :
           {net::PathSelection::kFirstFit, net::PathSelection::kWidest,
            net::PathSelection::kBestFit}) {
        const auto ref = reference::FindFeasiblePath(fx.network, fx.provider,
                                                     src, dst, demand, sel);
        const topo::Path* got = net::FindFeasiblePathPtr(
            fx.network, fx.provider, src, dst, demand, sel);
        ASSERT_EQ(got != nullptr, ref.has_value());
        if (got != nullptr) {
          EXPECT_EQ(got->links, ref->links);  // same winner, same tie-break
        }
      }
      const topo::Path& lc_ref = reference::LeastCongestedPath(
          fx.network, fx.provider, src, dst, demand);
      const topo::Path& lc_got =
          net::LeastCongestedPath(fx.network, fx.provider, src, dst, demand);
      EXPECT_EQ(&lc_got, &lc_ref);  // pointer-identical: same candidate slot
    }
  }
}

// --- Reroute scan: flat row + path self-release vs the reference ---------

/// Random placements, reroutes and removals on `view`, so its residual row,
/// link lists and paths all differ from whatever it was stacked on.
void Scramble(net::MutableNetwork& view, RandomFixture& fx, int ops) {
  const std::size_t hosts = fx.ft.host_count();
  for (int i = 0; i < ops; ++i) {
    const FlowId::rep_type bound = view.FlowIdUpperBound();
    const FlowId id{static_cast<FlowId::rep_type>(fx.rng.Index(bound))};
    const std::size_t op = fx.rng.Index(3);
    if (op == 0 || !view.HasFlow(id)) {
      flow::Flow f;
      f.src = fx.ft.host(fx.rng.Index(hosts));
      do {
        f.dst = fx.ft.host(fx.rng.Index(hosts));
      } while (f.dst == f.src);
      f.demand = fx.rng.Uniform(1.0, 30.0);
      f.duration = 5.0;
      const auto& paths = fx.provider.Paths(f.src, f.dst);
      const topo::Path& p = paths[fx.rng.Index(paths.size())];
      if (view.CanPlace(f.demand, p)) view.Place(std::move(f), p);
    } else if (op == 1) {
      const flow::Flow& f = view.FlowOf(id);
      const auto& paths = fx.provider.Paths(f.src, f.dst);
      const topo::Path& p = paths[fx.rng.Index(paths.size())];
      if (p != view.PathOf(id) && view.CanReroute(id, p)) view.Reroute(id, p);
    } else {
      view.Remove(id);
    }
  }
}

/// Every placed flow of `view` gets the same reroute target (the same
/// provider-owned candidate) from the production scan and the reference,
/// with no mask and with a desired-path mask as Plan builds it. Returns
/// how many lookups found a target.
std::size_t ExpectSameRerouteTargets(const net::NetworkView& view,
                                     RandomFixture& fx) {
  std::size_t found = 0;
  for (FlowId::rep_type rep = 0; rep < view.FlowIdUpperBound(); ++rep) {
    const FlowId id{rep};
    if (!view.HasFlow(id)) continue;
    const flow::Flow& f = view.FlowOf(id);
    std::vector<char> mask(view.graph().link_count(), 0);
    const NodeId other =
        fx.ft.host(fx.rng.Index(fx.ft.host_count()));
    if (other != f.src) {
      const auto& desired = fx.provider.Paths(f.src, other);
      for (LinkId lid : desired[fx.rng.Index(desired.size())].links) {
        mask[lid.value()] = 1;
      }
    }
    for (const std::span<const char> forbidden :
         {std::span<const char>{}, std::span<const char>{mask}}) {
      const topo::Path* ref =
          reference::FindRerouteTargetPtr(view, fx.provider, id, forbidden);
      const topo::Path* got =
          FindRerouteTargetPtr(view, fx.provider, id, forbidden);
      EXPECT_EQ(got, ref) << "flow " << rep;
      if (got != nullptr) ++found;
    }
  }
  return found;
}

TEST(RerouteScanTest, SameTargetAsReferenceOnEveryViewKind) {
  std::size_t found = 0;
  for (std::uint64_t seed = 201; seed <= 206; ++seed) {
    RandomFixture fx(seed);
    found += ExpectSameRerouteTargets(fx.network, fx);

    net::NetworkOverlay unwritten(fx.network);
    ASSERT_EQ(unwritten.ResidualData(), fx.network.ResidualData());
    found += ExpectSameRerouteTargets(unwritten, fx);

    net::NetworkOverlay written(fx.network);
    Scramble(written, fx, 30);
    ASSERT_NE(written.ResidualData(), fx.network.ResidualData());
    found += ExpectSameRerouteTargets(written, fx);

    const net::NetworkView& written_view = written;  // stack, not copy
    net::NetworkOverlay stacked(written_view);
    ASSERT_EQ(stacked.ResidualData(), written.ResidualData());
    Scramble(stacked, fx, 30);
    ASSERT_NE(stacked.ResidualData(), written.ResidualData());
    found += ExpectSameRerouteTargets(stacked, fx);
  }
  EXPECT_GT(found, 0u) << "no lookup ever found a target";
}

// --- Worst-link ties --------------------------------------------------

TEST(BatchedScoringTest, WorstLinkTieKeepsFirstLink) {
  // Line a - b - c: a<->b carries 100 Mbps, b<->c only 30. One-hop
  // blockers leave a residual of exactly 10 on all four directed links, so
  // a 40 Mbps flow over two hops is 30 short on both of its links. The
  // first of the tied worst links decides likely_blocked: a 100 Mbps link
  // can shed 90 (30 is movable, not blocked), a 30 Mbps link only 20
  // (blocked). Uniform Fat-Tree capacities make both picks agree.
  topo::Graph g;
  const NodeId a = g.AddNode(topo::NodeRole::kHost);
  const NodeId b = g.AddNode(topo::NodeRole::kGeneric);
  const NodeId c = g.AddNode(topo::NodeRole::kHost);
  g.AddBidirectional(a, b, 100.0);
  g.AddBidirectional(b, c, 30.0);
  net::Network network(g);
  const topo::KspPathProvider provider(g, 1);
  auto make_flow = [](NodeId src, NodeId dst, Mbps demand) {
    flow::Flow f;
    f.src = src;
    f.dst = dst;
    f.demand = demand;
    f.duration = 1.0;
    return f;
  };
  for (const auto& [src, dst, demand] :
       {std::tuple{a, b, 90.0}, std::tuple{b, a, 90.0},
        std::tuple{b, c, 20.0}, std::tuple{c, b, 20.0}}) {
    const std::array<NodeId, 2> seq{src, dst};
    network.Place(make_flow(src, dst, demand), g.MakePath(seq));
  }

  // a -> c: the 100 Mbps link comes first.
  const UpdateEvent forward(EventId{1}, 0.0, {make_flow(a, c, 40.0)});
  const QuickCostResult fwd = QuickCostEstimate(network, provider, forward);
  EXPECT_EQ(fwd.flows_with_deficit, 1u);
  EXPECT_EQ(fwd.deficit_sum, 30.0);
  EXPECT_EQ(fwd.likely_blocked, 0u);

  // c -> a: the 30 Mbps link comes first.
  const UpdateEvent backward(EventId{2}, 0.0, {make_flow(c, a, 40.0)});
  const QuickCostResult bwd = QuickCostEstimate(network, provider, backward);
  EXPECT_EQ(bwd.flows_with_deficit, 1u);
  EXPECT_EQ(bwd.deficit_sum, 30.0);
  EXPECT_EQ(bwd.likely_blocked, 1u);

  for (const UpdateEvent* event : {&forward, &backward}) {
    const QuickCostResult ref =
        reference::QuickCostEstimate(network, provider, *event);
    const QuickCostResult got = QuickCostEstimate(network, provider, *event);
    EXPECT_EQ(got.likely_blocked, ref.likely_blocked);
    EXPECT_EQ(got.deficit_sum, ref.deficit_sum);
  }
}

}  // namespace
}  // namespace nu::update
