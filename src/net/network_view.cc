#include "net/network_view.h"

#include <algorithm>

#include "common/check.h"
#include "common/types.h"

namespace nu::net {

bool NetworkView::FlowUsesLink(FlowId flow, LinkId link) const {
  const std::span<const std::uint32_t> ids = LinkFlowIds(link);
  const auto rep = static_cast<std::uint32_t>(flow.value());
  if (rep != flow.value()) return false;  // ids beyond 2^32 are never stored
  return std::binary_search(ids.begin(), ids.end(), rep);
}

bool NetworkView::CanPlace(Mbps demand, const topo::Path& path) const {
  if (!PathAlive(path)) return false;
  for (LinkId lid : path.links) {
    if (!ApproxGe(Residual(lid), demand)) return false;
  }
  return true;
}

std::vector<LinkId> NetworkView::CongestedLinks(Mbps demand,
                                                const topo::Path& path) const {
  std::vector<LinkId> congested;
  for (LinkId lid : path.links) {
    if (!ApproxGe(Residual(lid), demand)) congested.push_back(lid);
  }
  return congested;
}

bool NetworkView::CanReroute(FlowId id, const topo::Path& new_path) const {
  NU_EXPECTS(HasFlow(id));
  const flow::Flow& f = FlowOf(id);
  if (new_path.source() != f.src || new_path.destination() != f.dst) {
    return false;
  }
  if (!PathAlive(new_path)) return false;
  const topo::Path& current = PathOf(id);
  for (LinkId lid : new_path.links) {
    const Mbps residual =
        SelfReleaseResidual(Residual(lid), lid, current, f.demand);
    if (!ApproxGe(residual, f.demand)) return false;
  }
  return true;
}

}  // namespace nu::net
