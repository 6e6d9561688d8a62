// Network: mutable network state = topology graph + placed flows + per-link
// residual bandwidth. This is the object every algorithm in the paper reads
// and writes: admission checks, congested-link detection (Definition 1),
// migration, and update execution all go through it.
//
// Hot-state layout: flows live in a slot store sized by live flows
// (flow/flow_table.h); each flow's slot also holds its placement, a 32-bit
// PathRef into a shared append-only topo::PathRegistry (one deep copy per
// DISTINCT path in the whole world, not per flow). Per-link flow lists are
// ascending-sorted 32-bit id vectors served as allocation-free spans. Ids
// are monotonic and never reused, which is what makes sorted lists and
// ascending-id snapshots canonical.
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
  /// Exists for experiments that study congestion; guard::Auditor then
  /// reports the congested links unless told force placements exist.
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

  [[nodiscard]] std::size_t placed_flow_count() const { return flows_.size(); }

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

  /// Byte footprint of the network's state: residual/liveness arrays,
  /// link-flow id vectors, the flow store (slots with their placements, id
  /// index pages), and the shared path registry's storage (chunks,
  /// per-path vectors, dedup index). Counts vector capacities, so it depends
  /// on how the state grew, not only on what it holds. Feeds perfbench's
  /// `net.state_bytes` and the scale-tier bytes comparison.
  [[nodiscard]] std::size_t ApproxStateBytes() const;

  /// Releases the slack capacity bulk loading left in the per-link lists
  /// (vector growth doubles). Call after a large initial injection so the
  /// footprint reflects the loaded state, not the load pattern.
  void ShrinkToFit();

  // --- Checkpointing -----------------------------------------------------

  /// CRC32 over the graph's structure (node roles, link endpoints and
  /// capacities). Snapshots embed it so a restore against a different
  /// topology throws CorruptInput instead of decoding garbage.
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
  /// be bound to an identical graph: a snapshot whose TopologyFingerprint
  /// differs throws CorruptInput. Table entries are re-interned into the
  /// live registry, and the per-link flow lists are rebuilt from the
  /// placements. A node, link, flow or table id outside this network's
  /// range throws CorruptInput before any state is indexed by it. So does
  /// a payload that is inconsistent in itself: a row of the wrong length, a
  /// flow record Place would refuse (see FlowTable::LoadState) or
  /// duplicated, placed twice or not placed, a path of fewer than 2 nodes
  /// or without one link per hop, a placed flow whose endpoints are not its
  /// path's, or down counts that disagree with the up-arrays. Contiguity
  /// and loops are left for guard::Auditor to report.
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);
  void Occupy(const topo::Path& path, Mbps demand, FlowId id);
  void Release(const topo::Path& path, Mbps demand, FlowId id);
  /// Rebuilds every per-link flow list from the placements.
  void RebuildLinkFlows();

  const topo::Graph* graph_;
  std::shared_ptr<topo::PathRegistry> registry_;
  flow::FlowTable flows_;
  std::vector<Mbps> residual_;  // by LinkId
  /// Flow ids on each link, ascending (canonical), 32-bit reps.
  std::vector<std::vector<std::uint32_t>> link_flows_;  // by LinkId
  std::vector<char> link_up_;  // by LinkId
  std::vector<char> node_up_;  // by NodeId
  std::size_t down_links_ = 0;
  std::size_t down_nodes_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t state_epoch_ = 0;
};

}  // namespace nu::net
