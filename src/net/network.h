// Network: mutable network state = topology graph + placed flows + per-link
// residual bandwidth. This is the object every algorithm in the paper reads
// and writes: admission checks, congested-link detection (Definition 1),
// migration, and update execution all go through it.
//
// Hot-state layout: flows live in a dense id-indexed slot store
// (flow/flow_table.h), each placement is a 32-bit PathRef into a shared
// append-only topo::PathRegistry (one deep copy per DISTINCT path in the
// whole world, not per flow), and per-link flow lists are ascending-sorted
// 32-bit id vectors served as allocation-free spans. Ids are monotonic and
// never reused, which is what makes dense slots and sorted lists canonical.
//
// Network is copyable on purpose (copies share the registry, so PathRefs
// stay valid in every copy, and a copy carries the fault state too), but
// planners normally evaluate what-if scenarios against a copy-on-write
// NetworkOverlay (net/overlay.h) and commit only the chosen plan to the
// real instance.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/binio.h"
#include "flow/flow_table.h"
#include "net/network_view.h"
#include "topo/graph.h"
#include "topo/path_registry.h"

namespace nu::net {

class Network final : public MutableNetwork {
 public:
  explicit Network(const topo::Graph& graph);

  [[nodiscard]] const topo::Graph& graph() const override { return *graph_; }
  [[nodiscard]] const flow::FlowTable& flows() const { return flows_; }

  /// The shared path-interning registry (see NetworkView::path_registry).
  [[nodiscard]] topo::PathRegistry& path_registry() const override {
    return *registry_;
  }

  /// Residual bandwidth c_{i,j} of a link.
  [[nodiscard]] Mbps Residual(LinkId link) const override;

  /// The residual store IS a flat array here (updated incrementally by
  /// Occupy/Release); path scans read it in place.
  [[nodiscard]] const Mbps* ResidualData() const override {
    return residual_.data();
  }

  /// The same row as a span, indexed by LinkId value.
  [[nodiscard]] std::span<const Mbps> ResidualArray() const {
    return residual_;
  }

  /// Utilization of a link in [0, 1].
  [[nodiscard]] double Utilization(LinkId link) const;

  /// Mean utilization over all links.
  [[nodiscard]] double AverageUtilization() const;

  /// Mean utilization over links that carry at least one flow.
  [[nodiscard]] double ActiveLinkUtilization() const;

  /// Mean utilization over fabric links (links not incident to a host) —
  /// "network utilization" in the core-contended sense. Falls back to
  /// AverageUtilization() when the graph has no fabric links.
  [[nodiscard]] double FabricUtilization() const;

  // CanPlace / CongestedLinks / CanReroute and the link-membership reads are
  // inherited from NetworkView, implemented once over the virtual
  // primitives so overlays share their exact feasibility semantics.

  using MutableNetwork::Place;
  using MutableNetwork::Reroute;

  /// Registers and places a flow on the interned path `path`. Requires
  /// feasibility (CanPlace). Returns the assigned flow id.
  FlowId Place(flow::Flow flow, PathRef path) override;

  /// Places even if it would congest links (residual may go negative).
  /// Exists for experiments that study congestion; invariant checking then
  /// reports the congested links.
  FlowId ForcePlace(flow::Flow flow, const topo::Path& path);

  /// Removes a flow, releasing its bandwidth.
  void Remove(FlowId id) override;

  /// Moves an existing flow to the interned path `new_path`. Requires the
  /// flow to exist and CanReroute to hold.
  void Reroute(FlowId id, PathRef new_path) override;

  /// Interned ref of a placed flow's current path.
  [[nodiscard]] PathRef PathRefOf(FlowId id) const override;

  /// Raw ids of flows on `link`, ascending, allocation-free.
  [[nodiscard]] std::span<const std::uint32_t> LinkFlowIds(
      LinkId link) const override;

  /// All placed flow ids (ascending).
  [[nodiscard]] std::vector<FlowId> PlacedFlows() const;

  /// Calls `fn(FlowId, const flow::Flow&, PathRef)` for every placed flow
  /// in ascending-id order. Cache-linear slot scan; the ref lets callers
  /// key per-path work (guard::Auditor's memo) without resolving it.
  template <typename Fn>
  void ForEachPlacementRef(Fn&& fn) const {
    for (std::size_t i = 0; i < placements_.size(); ++i) {
      const PathRef ref = placements_[i];
      if (!ref.valid()) continue;
      const FlowId id{static_cast<FlowId::rep_type>(i)};
      fn(id, flows_.Get(id), ref);
    }
  }

  /// ForEachPlacementRef with the path resolved:
  /// `fn(FlowId, const flow::Flow&, const topo::Path&)`.
  template <typename Fn>
  void ForEachPlacement(Fn&& fn) const {
    ForEachPlacementRef(
        [&](FlowId id, const flow::Flow& flow, PathRef ref) {
          fn(id, flow, registry_->Get(ref));
        });
  }

  [[nodiscard]] std::size_t placed_flow_count() const { return placed_count_; }

  /// True when no link has negative residual and internal accounting is
  /// consistent (recomputing residuals from placements matches the
  /// incremental values). O(V + E + flows * diameter).
  [[nodiscard]] bool CheckInvariants() const;

  // --- Fault state -------------------------------------------------------
  // Links and switches can be administratively down (fault injection). A
  // down element revokes its capacity: no placement, reroute, or candidate
  // path may cross it. Flows already crossing a failing element are NOT
  // removed implicitly — the fault layer computes the victim set first and
  // removes/replans them explicitly, so every state change stays visible.

  /// Marks one directed link up or down. Idempotent; bumps the topology
  /// epoch on an actual change.
  void SetLinkUp(LinkId link, bool up);
  [[nodiscard]] bool LinkUp(LinkId link) const override;

  /// Marks a node (switch) up or down. A down node kills every path through
  /// it. Idempotent; bumps the topology epoch on an actual change.
  void SetNodeUp(NodeId node, bool up);
  [[nodiscard]] bool NodeUp(NodeId node) const override;

  /// Flips a whole set of links and nodes (a shared-risk group) in ONE
  /// topology transition: the epoch counters bump at most once no matter
  /// how many elements actually change. Idempotent per element.
  void SetElementsUp(std::span<const LinkId> links,
                     std::span<const NodeId> nodes, bool up);

  /// True when every link and node of `path` is up. Always true while no
  /// element is down (cheap fast path).
  [[nodiscard]] bool PathAlive(const topo::Path& path) const override;

  /// Monotonic counter bumped on every up/down transition — lets path
  /// caches (topo::PredicatePathProvider) invalidate precisely when the
  /// live topology changes.
  [[nodiscard]] std::uint64_t topology_epoch() const { return epoch_; }

  /// Monotonic counter bumped on ANY state mutation — placements, removals,
  /// reroutes, and up/down transitions alike. Two reads of this network
  /// under the same state epoch observe identical state, so probe-cost
  /// caches key on it.
  [[nodiscard]] std::uint64_t state_epoch() const { return state_epoch_; }

  [[nodiscard]] std::size_t down_link_count() const { return down_links_; }
  [[nodiscard]] std::size_t down_node_count() const { return down_nodes_; }

  /// True when a flow with this id is placed in this network instance.
  /// Plans computed against a what-if view may reference flows (the planned
  /// event's own placements) that do not exist in the original.
  [[nodiscard]] bool HasFlow(FlowId id) const override {
    return flows_.Contains(id);
  }

  /// Read access to a placed flow's descriptor.
  [[nodiscard]] const flow::Flow& FlowOf(FlowId id) const override {
    return flows_.Get(id);
  }

  /// Next flow id this network would assign (see NetworkView).
  [[nodiscard]] FlowId::rep_type FlowIdUpperBound() const override {
    return flows_.peek_next_id();
  }

  /// Honest byte footprint of the mutable state a deep copy would duplicate:
  /// residual/liveness arrays, link-flow id vectors, the dense placement-ref
  /// and flow-slot stores, and the shared path registry's storage (chunks,
  /// per-path vectors, dedup index). Feeds the overlay_bytes_saved probe
  /// statistic and the scale-tier bytes comparison.
  [[nodiscard]] std::size_t ApproxStateBytes() const;

  /// Releases the slack capacity bulk loading left in the dense stores
  /// (vector growth doubles). Call after a large initial injection so the
  /// footprint reflects the loaded state, not the load pattern.
  void ShrinkToFit();

  // --- Checkpointing -----------------------------------------------------

  /// CRC32 over the graph's structure (node roles, link endpoints and
  /// capacities). Snapshots embed it so a restore against a different
  /// topology fails loudly instead of decoding garbage.
  [[nodiscard]] std::uint32_t TopologyFingerprint() const;

  /// Serializes the complete mutable state (snapshot payload format v9).
  /// Paths are written as a per-snapshot used-paths table (distinct paths
  /// in first-use order over ascending flow ids) plus a table index per
  /// placement — raw PathRef values never reach the wire, because ref
  /// numbering depends on interning order (parallel probing may intern in
  /// any order) while the table depends only on the logical state. The
  /// per-link flow lists are not written: the placements determine them.
  void SaveState(BinWriter& w) const;

  /// Restores state serialized by SaveState. The graph itself is not
  /// persisted — the caller reconstructs it and this network must already
  /// be bound to an identical graph (checked via TopologyFingerprint).
  /// Table entries are re-interned into the live registry, and the
  /// per-link flow lists are rebuilt from the placements. A node, link,
  /// flow or table id outside this network's range throws CorruptInput
  /// before any state is indexed by it. So does a payload that is
  /// inconsistent in itself: a row of the wrong length, a flow record
  /// duplicated, placed twice or not placed, or down counts that disagree
  /// with the up-arrays. Path structure (shape, contiguity, loops,
  /// endpoints) is left for guard::Auditor to report. A foreign topology
  /// still aborts.
  void LoadState(BinReader& r);

 private:
  void Occupy(const topo::Path& path, Mbps demand, FlowId id);
  void Release(const topo::Path& path, Mbps demand, FlowId id);
  /// Records `ref` as flow `id`'s placement, growing the dense store.
  void StorePlacement(FlowId id, PathRef ref);
  /// Rebuilds every per-link flow list from the placements.
  void RebuildLinkFlows();

  const topo::Graph* graph_;
  std::shared_ptr<topo::PathRegistry> registry_;
  flow::FlowTable flows_;
  std::vector<Mbps> residual_;  // by LinkId
  /// Flow ids on each link, ascending (canonical), 32-bit reps.
  std::vector<std::vector<std::uint32_t>> link_flows_;  // by LinkId
  /// Path ref of each placed flow, indexed by flow id; invalid() = absent.
  std::vector<PathRef> placements_;
  std::size_t placed_count_ = 0;
  std::vector<char> link_up_;  // by LinkId
  std::vector<char> node_up_;  // by NodeId
  std::size_t down_links_ = 0;
  std::size_t down_nodes_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t state_epoch_ = 0;
};

}  // namespace nu::net
