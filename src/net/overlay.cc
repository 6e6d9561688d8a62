#include "net/overlay.h"

#include <algorithm>

#include "common/check.h"
#include "common/types.h"

namespace nu::net {

NetworkOverlay::NetworkOverlay(const NetworkView& base)
    : base_(&base), next_id_(base.FlowIdUpperBound()) {}

Mbps NetworkOverlay::Residual(LinkId link) const {
  if (residual_.empty()) return base_->Residual(link);
  NU_EXPECTS(link.value() < residual_.size());
  return residual_[link.value()];
}

const Mbps* NetworkOverlay::ResidualData() const {
  if (residual_.empty()) return base_->ResidualData();
  return residual_.data();
}

bool NetworkOverlay::HasFlow(FlowId id) const {
  if (added_flows_.contains(id.value())) return true;
  if (removed_.contains(id.value())) return false;
  return base_->HasFlow(id);
}

const flow::Flow& NetworkOverlay::FlowOf(FlowId id) const {
  const auto it = added_flows_.find(id.value());
  if (it != added_flows_.end()) return it->second;
  NU_EXPECTS(!removed_.contains(id.value()));
  return base_->FlowOf(id);
}

PathRef NetworkOverlay::PathRefOf(FlowId id) const {
  const auto it = paths_.find(id.value());
  if (it != paths_.end()) return it->second;
  NU_EXPECTS(!removed_.contains(id.value()));
  return base_->PathRefOf(id);
}

std::span<const std::uint32_t> NetworkOverlay::LinkFlowIds(
    LinkId link) const {
  const auto it = link_flows_.find(link.value());
  if (it == link_flows_.end()) return base_->LinkFlowIds(link);
  return it->second;
}

std::vector<Mbps>& NetworkOverlay::OwnResiduals() {
  if (residual_.empty()) {
    const Mbps* base = base_->ResidualData();
    residual_.assign(base, base + graph().link_count());
  }
  return residual_;
}

std::vector<std::uint32_t>& NetworkOverlay::LinkFlowsSlot(LinkId link) {
  const auto [it, inserted] = link_flows_.try_emplace(link.value());
  if (inserted) {
    const std::span<const std::uint32_t> base_ids = base_->LinkFlowIds(link);
    it->second.assign(base_ids.begin(), base_ids.end());
  }
  return it->second;
}

void NetworkOverlay::Occupy(const topo::Path& path, Mbps demand, FlowId id) {
  const auto rep = static_cast<std::uint32_t>(id.value());
  std::vector<Mbps>& residual = OwnResiduals();
  for (LinkId lid : path.links) {
    residual[lid.value()] -= demand;
    auto& flows = LinkFlowsSlot(lid);
    flows.insert(std::lower_bound(flows.begin(), flows.end(), rep), rep);
  }
}

void NetworkOverlay::Release(const topo::Path& path, Mbps demand, FlowId id) {
  const auto rep = static_cast<std::uint32_t>(id.value());
  std::vector<Mbps>& residual = OwnResiduals();
  for (LinkId lid : path.links) {
    residual[lid.value()] += demand;
    auto& flows = LinkFlowsSlot(lid);
    const auto it = std::lower_bound(flows.begin(), flows.end(), rep);
    NU_CHECK(it != flows.end() && *it == rep);
    flows.erase(it);
  }
}

FlowId NetworkOverlay::Place(flow::Flow flow, PathRef ref) {
  const topo::Path& path = path_registry().Get(ref);
  NU_EXPECTS(graph().IsValidPath(path));
  NU_EXPECTS(path.source() == flow.src);
  NU_EXPECTS(path.destination() == flow.dst);
  NU_EXPECTS(CanPlace(flow.demand, path));
  // Mirror FlowTable::Add's registration checks and id assignment.
  NU_EXPECTS(flow.demand > 0.0);
  NU_EXPECTS(flow.duration >= 0.0);
  NU_EXPECTS(flow.src != flow.dst);
  const FlowId id{next_id_++};
  const Mbps demand = flow.demand;
  flow.id = id;
  added_flows_.emplace(id.value(), std::move(flow));
  Occupy(path, demand, id);
  paths_.emplace(id.value(), ref);
  return id;
}

void NetworkOverlay::Reroute(FlowId id, PathRef new_ref) {
  NU_EXPECTS(HasFlow(id));
  const flow::Flow& f = FlowOf(id);
  const topo::Path& new_path = path_registry().Get(new_ref);
  NU_EXPECTS(graph().IsValidPath(new_path));
  NU_EXPECTS(new_path.source() == f.src);
  NU_EXPECTS(new_path.destination() == f.dst);
  const Mbps demand = f.demand;
  // Release first so the flow's own bandwidth on shared links counts toward
  // the feasibility of the new path (same order as Network::Reroute).
  const PathRef old_ref = PathRefOf(id);
  Release(path_registry().Get(old_ref), demand, id);
  NU_CHECK(CanPlace(demand, new_path));
  Occupy(new_path, demand, id);
  paths_[id.value()] = new_ref;
}

void NetworkOverlay::Remove(FlowId id) {
  NU_EXPECTS(HasFlow(id));
  const Mbps demand = FlowOf(id).demand;
  const PathRef ref = PathRefOf(id);
  Release(path_registry().Get(ref), demand, id);
  if (added_flows_.erase(id.value()) == 0) removed_.insert(id.value());
  paths_.erase(id.value());
}

}  // namespace nu::net
