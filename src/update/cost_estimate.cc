#include "update/cost_estimate.h"

#include <limits>

namespace nu::update {
namespace {

/// A congested link of one candidate path: the shortfall `deficit` of
/// placing the demand there, and the residual that produced it.
struct WorstLink {
  Mbps deficit = 0.0;
  LinkId link{};
  Mbps residual = 0.0;
};

}  // namespace

QuickCostResult QuickCostEstimate(const net::NetworkView& network,
                                  const topo::PathProvider& paths,
                                  const UpdateEvent& event) {
  QuickCostResult result;
  const Mbps* residuals = network.ResidualData();

  for (const flow::Flow& f : event.flows()) {
    const std::vector<topo::Path>& candidates = paths.Paths(f.src, f.dst);
    if (candidates.empty()) {
      ++result.likely_blocked;
      continue;
    }

    // Running best over the candidates: strict < keeps the first of equal
    // deficits, and the scan stops once the best fits outright (a later
    // candidate could only tie at deficit 0 and would lose the tie).
    WorstLink best{.deficit = std::numeric_limits<double>::infinity()};
    for (const topo::Path& p : candidates) {
      // The candidate's worst link: strict > keeps the first of equal
      // deficits, read in place from the flat residual row.
      WorstLink worst;
      for (const LinkId lid : p.links) {
        const Mbps residual = residuals[lid.value()];
        if (ApproxGe(residual, f.demand)) continue;
        const Mbps deficit = f.demand - residual;
        if (deficit > worst.deficit) worst = {deficit, lid, residual};
      }
      if (worst.deficit < best.deficit) {
        best = worst;
        if (best.deficit <= kBandwidthEpsilon) break;  // fits outright
      }
    }
    if (best.deficit <= kBandwidthEpsilon) continue;  // fits outright

    ++result.flows_with_deficit;
    result.deficit_sum += best.deficit;
    // Movable traffic on the winning candidate's worst link: capacity minus
    // the residual read there (recomputing it from the deficit would not be
    // bit-identical).
    const Mbps movable =
        network.graph().link(best.link).capacity - best.residual;
    if (best.deficit > movable + kBandwidthEpsilon) {
      // Even migrating everything off the congested links cannot free
      // enough: the shortfall is structural (e.g. a saturated host uplink).
      ++result.likely_blocked;
    }
  }
  return result;
}

Mbps QuickCostScore(const net::NetworkView& network,
                    const topo::PathProvider& paths,
                    const UpdateEvent& event) {
  const QuickCostResult estimate = QuickCostEstimate(network, paths, event);
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

}  // namespace nu::update
