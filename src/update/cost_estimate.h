// Quick update-cost estimation. LMTF's per-round probes fully plan alpha+1
// events (migration sets included) just to COMPARE costs — the dominant
// share of its 4-5x plan-time overhead. This estimator approximates Cost(U)
// without planning migrations: per flow, the bandwidth deficit on its best
// candidate path is a lower-bound proxy for the traffic that would have to
// move. The estimate is cheap (no network copies, no cover solving) and
// order-correlates with the exact cost, so a scheduler can rank candidates
// with it and pay for one full plan only at execution.
//
// The estimator scores all of a flow's candidate paths in one batched pass:
// each candidate's residual row is gathered into contiguous arena scratch
// (straight loads from the view's flat residual array) and reduced by the
// SoA scan kernels (net/residual_scan.h). Results are bit-identical to the
// historical scalar candidate loop — same strict-< first-wins winner, same
// epsilon semantics — which the probe-cost cache and the sharded argmin
// rely on; tests/update/batched_scoring_test.cc pins the equivalence
// against a reference copy of the scalar implementation.
#pragma once

#include "common/arena.h"
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
///
/// `scratch` holds the batched pass's per-candidate rows and accumulators;
/// it is Reset() on entry (the call owns it for its duration) and a warmed
/// arena makes the call allocation-free. The overload without an arena is
/// the cold-path convenience form: it pays one arena construction per call.
[[nodiscard]] QuickCostResult QuickCostEstimate(const net::NetworkView& network,
                                                const topo::PathProvider& paths,
                                                const UpdateEvent& event,
                                                Arena& scratch);

[[nodiscard]] QuickCostResult QuickCostEstimate(const net::NetworkView& network,
                                                const topo::PathProvider& paths,
                                                const UpdateEvent& event);

/// Scalar ranking value mirroring the simulator's probe semantics: the
/// deficit sum plus a 10x penalty on likely-blocked flows' demands.
[[nodiscard]] Mbps QuickCostScore(const net::NetworkView& network,
                                  const topo::PathProvider& paths,
                                  const UpdateEvent& event, Arena& scratch);

[[nodiscard]] Mbps QuickCostScore(const net::NetworkView& network,
                                  const topo::PathProvider& paths,
                                  const UpdateEvent& event);

}  // namespace nu::update
