// Admission helpers: given a flow demand and the candidate path set P(f),
// decide whether (and where) the flow fits without migrating anything.
// This is the primitive behind the paper's Fig. 1 (success probability of
// inserting a flow as utilization grows).
#pragma once

#include <optional>

#include "net/network_view.h"
#include "topo/path_provider.h"

namespace nu::net {

/// How to pick among multiple feasible paths.
enum class PathSelection : std::uint8_t {
  /// First feasible path in the provider's deterministic order.
  kFirstFit,
  /// Feasible path maximizing the bottleneck (minimum) residual — spreads
  /// load, the default for background traffic and update flows.
  kWidest,
  /// Feasible path minimizing the bottleneck residual that still fits —
  /// packs flows tightly, useful as an adversarial baseline.
  kBestFit,
};

/// Returns a feasible path for (src, dst, demand) under `selection`, or
/// nullptr when no candidate path has enough residual everywhere. The
/// returned path is owned by the provider (stable until its caches are
/// invalidated — within one planning pass). Each candidate is scanned
/// once, in place in the view's flat residual row (ResidualData): the
/// ApproxGe fit CanPlace applies, the bottleneck and the total residual,
/// with no allocation and no optional<Path> deep copy. The total sums in
/// path-link order on purpose — reassociating it would flip near-tie
/// decisions.
[[nodiscard]] const topo::Path* FindFeasiblePathPtr(
    const NetworkView& network, const topo::PathProvider& paths, NodeId src,
    NodeId dst, Mbps demand, PathSelection selection = PathSelection::kWidest);

/// Copying convenience wrapper over FindFeasiblePathPtr; prefer the pointer
/// form on hot paths.
[[nodiscard]] std::optional<topo::Path> FindFeasiblePath(
    const NetworkView& network, const topo::PathProvider& paths, NodeId src,
    NodeId dst, Mbps demand, PathSelection selection = PathSelection::kWidest);

/// True iff some candidate path can carry `demand` with no migration.
[[nodiscard]] bool CanAdmit(const NetworkView& network,
                            const topo::PathProvider& paths, NodeId src,
                            NodeId dst, Mbps demand);

/// The candidate path with the fewest congested links for `demand`; used as
/// the "desired path" on which the migration optimizer then works when no
/// path is outright feasible. Ties broken by larger bottleneck residual.
[[nodiscard]] const topo::Path& LeastCongestedPath(
    const NetworkView& network, const topo::PathProvider& paths, NodeId src,
    NodeId dst, Mbps demand);

}  // namespace nu::net
