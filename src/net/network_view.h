// Read and read-write interfaces over network state. Every planning
// algorithm (admission, migration, event planning, quick cost estimation)
// consumes these instead of the concrete Network, so a what-if probe can run
// against a copy-on-write NetworkOverlay (one residual row plus the flow
// state it touches) exactly as it runs against the real Network or a deep
// copy — with bit-identical reads and therefore bit-identical decisions.
//
// The virtual methods are the primitives; CanPlace / CongestedLinks /
// CanReroute — and the link-membership reads FlowCountOnLink / FlowUsesLink,
// which are derived from the allocation-free LinkFlowIds() span — are
// implemented once over the primitives so the overlay and the
// concrete network can never diverge on feasibility semantics.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "flow/flow.h"
#include "topo/graph.h"
#include "topo/path_registry.h"

namespace nu::net {

class NetworkView {
 public:
  virtual ~NetworkView() = default;

  [[nodiscard]] virtual const topo::Graph& graph() const = 0;

  /// The path-interning registry this view's PathRefs resolve against.
  /// Shared by the base network, its copies, and every overlay stacked on
  /// it; append-only, so handing out a mutable reference from a const view
  /// is safe (interning never perturbs existing state).
  [[nodiscard]] virtual topo::PathRegistry& path_registry() const = 0;

  /// Residual bandwidth c_{i,j} of a link.
  [[nodiscard]] virtual Mbps Residual(LinkId link) const = 0;

  /// Contiguous per-link residual array indexed by LinkId value, never
  /// null: element i bitwise-equals Residual(LinkId{i}) for every link, so
  /// the path scans (admission, quick cost estimation, the reroute scan)
  /// read it in place instead of one virtual call per link. A
  /// copy-on-write overlay serves its base's array until its first
  /// residual write and its own copy from then on. Valid until the next
  /// mutation of this view or of any view beneath it.
  [[nodiscard]] virtual const Mbps* ResidualData() const = 0;

  [[nodiscard]] virtual bool LinkUp(LinkId link) const = 0;
  [[nodiscard]] virtual bool NodeUp(NodeId node) const = 0;

  /// True when every link and node of `path` is up.
  [[nodiscard]] virtual bool PathAlive(const topo::Path& path) const = 0;

  /// True when a flow with this id is placed in this view.
  [[nodiscard]] virtual bool HasFlow(FlowId id) const = 0;

  /// Read access to a placed flow's descriptor. Requires HasFlow(id).
  [[nodiscard]] virtual const flow::Flow& FlowOf(FlowId id) const = 0;

  /// Interned ref of a placed flow's current path. Requires HasFlow(id).
  [[nodiscard]] virtual PathRef PathRefOf(FlowId id) const = 0;

  /// Raw ids of flows currently traversing `link`, ascending, with no
  /// allocation or copy. Valid until the next mutation of this view.
  [[nodiscard]] virtual std::span<const std::uint32_t> LinkFlowIds(
      LinkId link) const = 0;

  /// Exclusive upper bound on the flow ids this view would assign next: a
  /// Place here (or in any overlay stacked on this view) allocates exactly
  /// this id. Chaining the bound through overlays keeps what-if flow ids
  /// numerically identical to the ids a deep copy would have assigned —
  /// P-LMTF's co-feasibility ownership checks depend on that.
  [[nodiscard]] virtual FlowId::rep_type FlowIdUpperBound() const = 0;

  // --- Derived helpers (shared semantics for Network and overlays) --------

  /// Current path of a placed flow. Requires HasFlow(id). The reference is
  /// owned by the shared registry and outlives this view.
  [[nodiscard]] const topo::Path& PathOf(FlowId id) const {
    return path_registry().Get(PathRefOf(id));
  }

  /// Number of flows currently traversing `link`.
  [[nodiscard]] std::size_t FlowCountOnLink(LinkId link) const {
    return LinkFlowIds(link).size();
  }

  /// True when `flow` crosses `link`. Binary search over the sorted span.
  [[nodiscard]] bool FlowUsesLink(FlowId flow, LinkId link) const;

  /// True iff `path` is alive and every link has residual >= demand
  /// (within epsilon).
  [[nodiscard]] bool CanPlace(Mbps demand, const topo::Path& path) const;

  /// Links of `path` whose residual is below `demand` — the congested set
  /// E^c of Definition 1.
  [[nodiscard]] std::vector<LinkId> CongestedLinks(
      Mbps demand, const topo::Path& path) const;

  /// True iff `new_path` could carry the flow once its own occupancy on
  /// shared links is released (SelfReleaseResidual) — the feasibility
  /// predicate of Reroute. Requires HasFlow(id).
  [[nodiscard]] bool CanReroute(FlowId id, const topo::Path& new_path) const;
};

/// Reroute's self-release rule: the residual `link` offers a flow of
/// `demand` currently routed on `current`, counting the flow's own
/// occupancy as free when the link is on its path. Reading the path, not
/// the link's flow list, gives the same answer: every Place, Reroute and
/// Remove updates the path and the lists together (a network test rebuilds
/// the lists from the placements and compares), and the sum is the same
/// double either way.
[[nodiscard]] inline Mbps SelfReleaseResidual(Mbps residual, LinkId link,
                                              const topo::Path& current,
                                              Mbps demand) {
  for (const LinkId own : current.links) {
    if (own == link) return residual + demand;
  }
  return residual;
}

/// A view that also accepts the three state mutations planning needs. The
/// concrete Network and the copy-on-write NetworkOverlay both implement it,
/// so the planner's mutation core runs unchanged against either.
///
/// Placements are by PathRef: a caller that already holds the interned ref
/// (a planned FlowAction, a MigrationMove) passes it straight through, and
/// the path forms only intern and forward. Implementations check every
/// precondition on the resolved path. Subclasses that override the ref
/// forms add `using MutableNetwork::Place;` and `using
/// MutableNetwork::Reroute;` to keep the path forms visible.
class MutableNetwork : public NetworkView {
 public:
  /// Registers and places a flow on the interned path `path`. Requires a
  /// valid path between the flow's endpoints and feasibility (CanPlace).
  /// Returns the assigned flow id.
  virtual FlowId Place(flow::Flow flow, PathRef path) = 0;

  /// Moves an existing flow to the interned path `new_path`. Requires the
  /// flow to exist and the move to be feasible under self-release.
  virtual void Reroute(FlowId id, PathRef new_path) = 0;

  /// Removes a flow, releasing its bandwidth.
  virtual void Remove(FlowId id) = 0;

  /// Interns `path`, then places by ref.
  FlowId Place(flow::Flow flow, const topo::Path& path) {
    return Place(std::move(flow), path_registry().Intern(path));
  }

  /// Interns `new_path`, then reroutes by ref.
  void Reroute(FlowId id, const topo::Path& new_path) {
    Reroute(id, path_registry().Intern(new_path));
  }
};

}  // namespace nu::net
