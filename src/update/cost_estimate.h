// Quick update-cost estimation. LMTF's per-round probes fully plan alpha+1
// events (migration sets included) just to COMPARE costs — the dominant
// share of its 4-5x plan-time overhead. This estimator approximates Cost(U)
// without planning migrations: per flow, the bandwidth deficit on its best
// candidate path is a lower-bound proxy for the traffic that would have to
// move. The estimate is cheap (no network copies, no cover solving) and
// order-correlates with the exact cost, so a scheduler can rank candidates
// with it and pay for one full plan only at execution.
//
// The estimator reads each candidate's links in place from the view's flat
// residual row (NetworkView::ResidualData) and keeps a running best: no
// scratch, no allocation. Results are bit-identical to the historical
// scalar candidate loop — same strict-< first-wins winner, same strict->
// first worst link, same epsilon semantics — which the probe-cost cache and
// the schedulers' cheapest-candidate scan rely on;
// tests/update/batched_scoring_test.cc pins the equivalence against a
// reference copy of the scalar implementation.
#pragma once

#include "net/network_view.h"
#include "topo/path_provider.h"
#include "update/update_event.h"

namespace nu::update {

struct QuickCostResult {
  /// Sum over flows of the best candidate path's worst-link deficit (Mbps).
  /// 0 when every flow fits somewhere outright. Per flow this lower-bounds
  /// the migrated traffic: clearing the worst link requires moving at least
  /// its deficit off it (the real plan migrates whole flows and usually
  /// more).
  Mbps deficit_sum = 0.0;
  /// Flows with no candidate path and a deficit > the traffic present on
  /// the congested links — likely unplaceable even with migration.
  std::size_t likely_blocked = 0;
  /// Flows needing some migration.
  std::size_t flows_with_deficit = 0;
};

/// Estimates against the CURRENT network state; does not mutate anything
/// and — unlike EventPlanner::Plan — does not account for intra-event
/// contention (earlier flows of the same event consuming capacity), which
/// is the main source of underestimation.
[[nodiscard]] QuickCostResult QuickCostEstimate(const net::NetworkView& network,
                                                const topo::PathProvider& paths,
                                                const UpdateEvent& event);

/// Scalar ranking value mirroring the simulator's probe semantics: the
/// deficit sum plus a 10x penalty on likely-blocked flows' demands.
[[nodiscard]] Mbps QuickCostScore(const net::NetworkView& network,
                                  const topo::PathProvider& paths,
                                  const UpdateEvent& event);

}  // namespace nu::update
