#include "update/cost_estimate.h"

#include <algorithm>

#include "net/residual_scan.h"

namespace nu::update {

QuickCostResult QuickCostEstimate(const net::NetworkView& network,
                                  const topo::PathProvider& paths,
                                  const UpdateEvent& event, Arena& scratch) {
  QuickCostResult result;
  scratch.Reset();
  const Mbps* residuals = network.ResidualData();

  for (const flow::Flow& f : event.flows()) {
    const std::vector<topo::Path>& candidates = paths.Paths(f.src, f.dst);
    if (candidates.empty()) {
      ++result.likely_blocked;
      continue;
    }

    // Batched pass: gather each candidate's residual row into contiguous
    // scratch and reduce it with the MaxDeficit kernel. Winner selection is
    // the historical control flow verbatim — strict < with the first
    // candidate winning ties, early exit the moment the running best fits
    // outright (a later candidate can only tie at deficit 0 and would lose
    // the tie anyway) — so results are bit-identical to the scalar loop.
    const std::size_t n = candidates.size();
    net::WorstDeficit* worst = scratch.AllocArray<net::WorstDeficit>(n);
    std::size_t max_links = 0;
    for (const topo::Path& p : candidates) {
      max_links = std::max(max_links, p.links.size());
    }
    Mbps* row = scratch.AllocArray<Mbps>(max_links);
    std::size_t best = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const std::span<const LinkId> links = candidates[c].links;
      net::GatherResiduals(residuals, links, row);
      worst[c] = net::MaxDeficit(row, links.size(), f.demand);
      if (c > 0 && worst[c].deficit < worst[best].deficit) best = c;
      if (worst[best].deficit <= kBandwidthEpsilon) break;  // fits outright
    }
    if (worst[best].deficit <= kBandwidthEpsilon) continue;  // fits outright

    ++result.flows_with_deficit;
    result.deficit_sum += worst[best].deficit;
    // Movable traffic on the winning candidate's worst link: capacity minus
    // the GATHERED residual (recomputing it from the deficit would not be
    // bit-identical).
    const LinkId worst_link = candidates[best].links[worst[best].index];
    const Mbps movable =
        network.graph().link(worst_link).capacity - worst[best].residual;
    if (worst[best].deficit > movable + kBandwidthEpsilon) {
      // Even migrating everything off the congested links cannot free
      // enough: the shortfall is structural (e.g. a saturated host uplink).
      ++result.likely_blocked;
    }
  }
  return result;
}

QuickCostResult QuickCostEstimate(const net::NetworkView& network,
                                  const topo::PathProvider& paths,
                                  const UpdateEvent& event) {
  Arena scratch;
  return QuickCostEstimate(network, paths, event, scratch);
}

Mbps QuickCostScore(const net::NetworkView& network,
                    const topo::PathProvider& paths, const UpdateEvent& event,
                    Arena& scratch) {
  const QuickCostResult estimate =
      QuickCostEstimate(network, paths, event, scratch);
  Mbps score = estimate.deficit_sum;
  // Mirror the simulator's full-probe penalty: blocked flows are charged
  // their demand at 10x. We do not know which specific flows are blocked
  // here, so charge the mean event demand per blocked flow.
  if (estimate.likely_blocked > 0 && event.flow_count() > 0) {
    const Mbps mean_demand =
        event.TotalDemand() / static_cast<double>(event.flow_count());
    score += 10.0 * mean_demand * static_cast<double>(estimate.likely_blocked);
  }
  return score;
}

Mbps QuickCostScore(const net::NetworkView& network,
                    const topo::PathProvider& paths,
                    const UpdateEvent& event) {
  Arena scratch;
  return QuickCostScore(network, paths, event, scratch);
}

}  // namespace nu::update
