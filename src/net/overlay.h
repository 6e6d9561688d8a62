// NetworkOverlay: a copy-on-write delta view over any NetworkView. Reads
// fall through to the base until a mutation touches them; from then on the
// overlay serves its own value. Residuals are one flat row: the first
// residual write copies the base's whole row (O(links): 6 KB at k=8, 48 KB
// at k=16), and from then on Residual() and ResidualData() read the
// overlay's own row. Flows, paths and link-flow lists stay sparse patches,
// O(state touched), so a what-if probe never deep-copies the flow state.
//
// Determinism contract: every read an overlay serves is bit-identical to
// the read a deep copy would have served after the same mutation sequence.
//   * The residual row starts as a copy of the base's exact doubles;
//     subsequent +/- demand operations happen in the same order as they
//     would on a copy, so IEEE arithmetic is identical. Until that first
//     write, ResidualData() is the base's pointer.
//   * Flow ids are allocated from the base's FlowIdUpperBound(), so the ids
//     a probe assigns match the ids a deep copy would have assigned.
//   * Link-flow patches mirror Network's canonical ascending id lists
//     (sorted insert/erase), served as allocation-free spans. A flow is on
//     a link's list exactly when the link is on the flow's path, which is
//     what lets the self-release rule (SelfReleaseResidual) read the path.
//   * Paths are stored as PathRefs into the registry shared with the base,
//     so resolved references are identical objects.
//
// Overlays compose: an overlay over an overlay works (the event planner
// stacks one for migration what-ifs inside a co-feasibility scratch).
// The base must outlive the overlay and must not mutate while the overlay
// is alive — probes run against a network frozen for the round.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network_view.h"

namespace nu::net {

class NetworkOverlay final : public MutableNetwork {
 public:
  explicit NetworkOverlay(const NetworkView& base);

  [[nodiscard]] const topo::Graph& graph() const override {
    return base_->graph();
  }
  [[nodiscard]] topo::PathRegistry& path_registry() const override {
    return base_->path_registry();
  }
  [[nodiscard]] Mbps Residual(LinkId link) const override;
  /// The base's row until the first residual write, this overlay's own row
  /// from then on.
  [[nodiscard]] const Mbps* ResidualData() const override;
  [[nodiscard]] bool LinkUp(LinkId link) const override {
    return base_->LinkUp(link);
  }
  [[nodiscard]] bool NodeUp(NodeId node) const override {
    return base_->NodeUp(node);
  }
  [[nodiscard]] bool PathAlive(const topo::Path& path) const override {
    return base_->PathAlive(path);
  }
  [[nodiscard]] bool HasFlow(FlowId id) const override;
  [[nodiscard]] const flow::Flow& FlowOf(FlowId id) const override;
  [[nodiscard]] PathRef PathRefOf(FlowId id) const override;
  [[nodiscard]] std::span<const std::uint32_t> LinkFlowIds(
      LinkId link) const override;
  [[nodiscard]] FlowId::rep_type FlowIdUpperBound() const override {
    return next_id_;
  }

  using MutableNetwork::Place;
  using MutableNetwork::Reroute;
  FlowId Place(flow::Flow flow, PathRef path) override;
  void Reroute(FlowId id, PathRef new_path) override;
  void Remove(FlowId id) override;

  [[nodiscard]] const NetworkView& base() const { return *base_; }

 private:
  /// This overlay's residual row, copied from the base's on first use.
  std::vector<Mbps>& OwnResiduals();
  /// Materialized flow list for `link`, seeded from the base on first touch.
  std::vector<std::uint32_t>& LinkFlowsSlot(LinkId link);
  void Occupy(const topo::Path& path, Mbps demand, FlowId id);
  void Release(const topo::Path& path, Mbps demand, FlowId id);

  const NetworkView* base_;
  /// Residuals by LinkId value; empty until the first residual write.
  std::vector<Mbps> residual_;
  std::unordered_map<LinkId::rep_type, std::vector<std::uint32_t>> link_flows_;
  /// Flows placed through this overlay (not known to the base).
  std::unordered_map<FlowId::rep_type, flow::Flow> added_flows_;
  /// Path refs of added flows and of rerouted base flows.
  std::unordered_map<FlowId::rep_type, PathRef> paths_;
  /// Base flows removed through this overlay.
  std::unordered_set<FlowId::rep_type> removed_;
  FlowId::rep_type next_id_ = 0;
};

}  // namespace nu::net
