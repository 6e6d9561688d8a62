#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace nu::net {
namespace {

/// Sorted-insert of `rep` into ascending `flows`.
void InsertSorted(std::vector<std::uint32_t>& flows, std::uint32_t rep) {
  flows.insert(std::lower_bound(flows.begin(), flows.end(), rep), rep);
}

/// Sorted-erase of `rep` from ascending `flows`. Aborts if absent.
void EraseSorted(std::vector<std::uint32_t>& flows, std::uint32_t rep) {
  const auto it = std::lower_bound(flows.begin(), flows.end(), rep);
  NU_CHECK(it != flows.end() && *it == rep);
  flows.erase(it);
}

std::uint32_t Rep32(FlowId id) {
  return static_cast<std::uint32_t>(id.value());
}

}  // namespace

Network::Network(const topo::Graph& graph)
    : graph_(&graph), registry_(std::make_shared<topo::PathRegistry>()) {
  residual_.reserve(graph.link_count());
  for (const topo::Link& l : graph.links()) residual_.push_back(l.capacity);
  link_flows_.resize(graph.link_count());
  link_up_.assign(graph.link_count(), 1);
  node_up_.assign(graph.node_count(), 1);
}

void Network::SetLinkUp(LinkId link, bool up) {
  NU_EXPECTS(link.value() < link_up_.size());
  char& state = link_up_[link.value()];
  if (static_cast<bool>(state) == up) return;
  state = up ? 1 : 0;
  up ? --down_links_ : ++down_links_;
  ++epoch_;
  ++state_epoch_;
}

bool Network::LinkUp(LinkId link) const {
  NU_EXPECTS(link.value() < link_up_.size());
  return link_up_[link.value()] != 0;
}

void Network::SetNodeUp(NodeId node, bool up) {
  NU_EXPECTS(node.value() < node_up_.size());
  char& state = node_up_[node.value()];
  if (static_cast<bool>(state) == up) return;
  state = up ? 1 : 0;
  up ? --down_nodes_ : ++down_nodes_;
  ++epoch_;
  ++state_epoch_;
}

bool Network::NodeUp(NodeId node) const {
  NU_EXPECTS(node.value() < node_up_.size());
  return node_up_[node.value()] != 0;
}

void Network::SetElementsUp(std::span<const LinkId> links,
                            std::span<const NodeId> nodes, bool up) {
  bool changed = false;
  for (LinkId link : links) {
    NU_EXPECTS(link.value() < link_up_.size());
    char& state = link_up_[link.value()];
    if (static_cast<bool>(state) == up) continue;
    state = up ? 1 : 0;
    up ? --down_links_ : ++down_links_;
    changed = true;
  }
  for (NodeId node : nodes) {
    NU_EXPECTS(node.value() < node_up_.size());
    char& state = node_up_[node.value()];
    if (static_cast<bool>(state) == up) continue;
    state = up ? 1 : 0;
    up ? --down_nodes_ : ++down_nodes_;
    changed = true;
  }
  // One epoch bump for the whole group: a correlated incident is ONE
  // topology transition, so path caches invalidate once, not per element.
  if (changed) {
    ++epoch_;
    ++state_epoch_;
  }
}

bool Network::PathAlive(const topo::Path& path) const {
  if (down_links_ == 0 && down_nodes_ == 0) return true;
  for (LinkId lid : path.links) {
    if (!LinkUp(lid)) return false;
  }
  for (NodeId nid : path.nodes) {
    if (!NodeUp(nid)) return false;
  }
  return true;
}

Mbps Network::Residual(LinkId link) const {
  NU_EXPECTS(link.value() < residual_.size());
  return residual_[link.value()];
}

double Network::Utilization(LinkId link) const {
  const topo::Link& l = graph_->link(link);
  return 1.0 - Residual(link) / l.capacity;
}

// The sums below read the residual row in place, in link order, with
// Utilization's expression, so they add the same doubles in the same order.

double Network::AverageUtilization() const {
  if (graph_->link_count() == 0) return 0.0;
  double sum = 0.0;
  for (const topo::Link& l : graph_->links()) {
    sum += 1.0 - residual_[l.id.value()] / l.capacity;
  }
  return sum / static_cast<double>(graph_->link_count());
}

double Network::FabricUtilization() const {
  double sum = 0.0;
  std::size_t fabric_links = 0;
  for (const topo::Link& l : graph_->links()) {
    const bool touches_host =
        graph_->node(l.src).role == topo::NodeRole::kHost ||
        graph_->node(l.dst).role == topo::NodeRole::kHost;
    if (touches_host) continue;
    sum += 1.0 - residual_[l.id.value()] / l.capacity;
    ++fabric_links;
  }
  if (fabric_links == 0) return AverageUtilization();
  return sum / static_cast<double>(fabric_links);
}

double Network::ActiveLinkUtilization() const {
  double sum = 0.0;
  std::size_t active = 0;
  for (const topo::Link& l : graph_->links()) {
    if (!link_flows_[l.id.value()].empty()) {
      sum += 1.0 - residual_[l.id.value()] / l.capacity;
      ++active;
    }
  }
  return active == 0 ? 0.0 : sum / static_cast<double>(active);
}

void Network::Occupy(const topo::Path& path, Mbps demand, FlowId id) {
  for (LinkId lid : path.links) {
    residual_[lid.value()] -= demand;
    InsertSorted(link_flows_[lid.value()], Rep32(id));
  }
}

void Network::Release(const topo::Path& path, Mbps demand, FlowId id) {
  for (LinkId lid : path.links) {
    residual_[lid.value()] += demand;
    EraseSorted(link_flows_[lid.value()], Rep32(id));
  }
}

void Network::StorePlacement(FlowId id, PathRef ref) {
  const auto index = static_cast<std::size_t>(id.value());
  if (index >= placements_.size()) placements_.resize(index + 1);
  NU_CHECK(!placements_[index].valid());
  placements_[index] = ref;
  ++placed_count_;
}

FlowId Network::Place(flow::Flow flow, PathRef ref) {
  const topo::Path& path = registry_->Get(ref);
  NU_EXPECTS(graph_->IsValidPath(path));
  NU_EXPECTS(path.source() == flow.src);
  NU_EXPECTS(path.destination() == flow.dst);
  NU_EXPECTS(CanPlace(flow.demand, path));
  const Mbps demand = flow.demand;
  const FlowId id = flows_.Add(std::move(flow));
  Occupy(path, demand, id);
  StorePlacement(id, ref);
  ++state_epoch_;
  return id;
}

FlowId Network::ForcePlace(flow::Flow flow, const topo::Path& path) {
  NU_EXPECTS(graph_->IsValidPath(path));
  NU_EXPECTS(path.source() == flow.src);
  NU_EXPECTS(path.destination() == flow.dst);
  const Mbps demand = flow.demand;
  const FlowId id = flows_.Add(std::move(flow));
  Occupy(path, demand, id);
  StorePlacement(id, registry_->Intern(path));
  ++state_epoch_;
  return id;
}

void Network::Remove(FlowId id) {
  const PathRef ref = PathRefOf(id);
  const Mbps demand = flows_.Get(id).demand;
  Release(registry_->Get(ref), demand, id);
  placements_[static_cast<std::size_t>(id.value())] = PathRef::invalid();
  --placed_count_;
  flows_.Remove(id);
  ++state_epoch_;
}

void Network::Reroute(FlowId id, PathRef new_ref) {
  const PathRef old_ref = PathRefOf(id);
  const flow::Flow& f = flows_.Get(id);
  const topo::Path& new_path = registry_->Get(new_ref);
  NU_EXPECTS(graph_->IsValidPath(new_path));
  NU_EXPECTS(new_path.source() == f.src);
  NU_EXPECTS(new_path.destination() == f.dst);
  const Mbps demand = f.demand;
  // Release first so the flow's own bandwidth on shared links counts toward
  // the feasibility of the new path.
  Release(registry_->Get(old_ref), demand, id);
  NU_CHECK(CanPlace(demand, new_path));
  Occupy(new_path, demand, id);
  placements_[static_cast<std::size_t>(id.value())] = new_ref;
  ++state_epoch_;
}

PathRef Network::PathRefOf(FlowId id) const {
  NU_EXPECTS(id.value() < placements_.size());
  const PathRef ref = placements_[static_cast<std::size_t>(id.value())];
  NU_EXPECTS(ref.valid());
  return ref;
}

std::span<const std::uint32_t> Network::LinkFlowIds(LinkId link) const {
  NU_EXPECTS(link.value() < link_flows_.size());
  return link_flows_[link.value()];
}

std::vector<FlowId> Network::PlacedFlows() const {
  std::vector<FlowId> ids;
  ids.reserve(placed_count_);
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (placements_[i].valid()) {
      ids.push_back(FlowId{static_cast<FlowId::rep_type>(i)});
    }
  }
  return ids;
}

std::size_t Network::ApproxStateBytes() const {
  std::size_t bytes = residual_.capacity() * sizeof(Mbps) +
                      link_up_.capacity() + node_up_.capacity();
  for (const auto& flows : link_flows_) {
    bytes += sizeof(flows) + flows.capacity() * sizeof(std::uint32_t);
  }
  bytes += placements_.capacity() * sizeof(PathRef);
  bytes += flows_.ApproxBytes();
  bytes += registry_->ApproxBytes();
  return bytes;
}

void Network::ShrinkToFit() {
  for (auto& flows : link_flows_) flows.shrink_to_fit();
  placements_.shrink_to_fit();
}

std::uint32_t Network::TopologyFingerprint() const {
  BinWriter w;
  w.Size(graph_->node_count());
  for (const topo::Node& n : graph_->nodes()) {
    w.U8(static_cast<std::uint8_t>(n.role));
  }
  w.Size(graph_->link_count());
  for (const topo::Link& l : graph_->links()) {
    w.U32(l.src.value());
    w.U32(l.dst.value());
    w.F64(l.capacity);
  }
  return Crc32(w.buffer());
}

namespace {

void SavePath(BinWriter& w, const topo::Path& path) {
  w.Size(path.nodes.size());
  for (NodeId n : path.nodes) w.U32(n.value());
  w.Size(path.links.size());
  for (LinkId l : path.links) w.U32(l.value());
}

/// Reads one used-paths table entry, rejecting ids outside `graph`.
topo::Path LoadPath(BinReader& r, const topo::Graph& graph) {
  topo::Path path;
  const std::size_t node_count = r.Size();
  path.nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    const NodeId node{r.U32()};
    if (node.value() >= graph.node_count()) {
      throw CorruptInput("path node id out of range");
    }
    path.nodes.push_back(node);
  }
  const std::size_t link_count = r.Size();
  path.links.reserve(link_count);
  for (std::size_t i = 0; i < link_count; ++i) {
    const LinkId link{r.U32()};
    if (link.value() >= graph.link_count()) {
      throw CorruptInput("path link id out of range");
    }
    path.links.push_back(link);
  }
  return path;
}

}  // namespace

void Network::SaveState(BinWriter& w) const {
  w.U32(TopologyFingerprint());
  flows_.SaveState(w);
  w.Vec(residual_, [](BinWriter& out, Mbps v) { out.F64(v); });
  // Used-paths table: distinct paths in first-use order over ascending flow
  // ids, found through a dense ref -> table index row. Depends only on the
  // logical state — never on PathRef numbering.
  constexpr std::uint32_t kUnused = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> table_index(registry_->size(), kUnused);
  std::vector<PathRef> table;
  for (const PathRef ref : placements_) {
    if (!ref.valid()) continue;
    std::uint32_t& index = table_index[ref.value()];
    if (index != kUnused) continue;
    index = static_cast<std::uint32_t>(table.size());
    table.push_back(ref);
  }
  w.Size(table.size());
  for (const PathRef ref : table) SavePath(w, registry_->Get(ref));
  w.Size(placed_count_);
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    const PathRef ref = placements_[i];
    if (!ref.valid()) continue;
    w.U64(static_cast<std::uint64_t>(i));
    w.Size(table_index[ref.value()]);
  }
  w.Vec(link_up_, [](BinWriter& out, char v) { out.U8(static_cast<std::uint8_t>(v)); });
  w.Vec(node_up_, [](BinWriter& out, char v) { out.U8(static_cast<std::uint8_t>(v)); });
  w.Size(down_links_);
  w.Size(down_nodes_);
  w.U64(epoch_);
  w.U64(state_epoch_);
}

void Network::LoadState(BinReader& r) {
  const std::uint32_t fingerprint = r.U32();
  NU_CHECK(fingerprint == TopologyFingerprint());
  flows_.LoadState(r);
  residual_ = r.Vec<Mbps>([](BinReader& in) { return in.F64(); });
  if (residual_.size() != graph_->link_count()) {
    throw CorruptInput("residual row length differs from the link count");
  }
  // Re-intern the used-paths table into the live registry; ref VALUES are
  // allocated fresh here (and may differ from the saving run's), which is
  // fine — only path contents are state.
  const std::size_t table_size = r.Size();
  std::vector<PathRef> table;
  table.reserve(table_size);
  for (std::size_t i = 0; i < table_size; ++i) {
    table.push_back(registry_->Intern(LoadPath(r, *graph_)));
  }
  placements_.assign(static_cast<std::size_t>(flows_.peek_next_id()),
                     PathRef::invalid());
  placed_count_ = 0;
  const std::size_t placed = r.Size();
  for (std::size_t i = 0; i < placed; ++i) {
    const FlowId id{r.U64()};
    // An index, not a length: bounded by the table below, not by the bytes
    // left in the payload.
    const std::uint64_t index = r.U64();
    if (!flows_.Contains(id)) {  // also bounds id below placements_.size()
      throw CorruptInput("placement for an unknown flow id");
    }
    if (index >= table.size()) {
      throw CorruptInput("placement path index out of range");
    }
    if (placements_[static_cast<std::size_t>(id.value())].valid()) {
      throw CorruptInput("flow placed twice");
    }
    StorePlacement(id, table[static_cast<std::size_t>(index)]);
  }
  if (placed_count_ != flows_.size()) {
    throw CorruptInput("stored flow without a placement");
  }
  RebuildLinkFlows();
  link_up_ = r.Vec<char>([](BinReader& in) { return static_cast<char>(in.U8()); });
  node_up_ = r.Vec<char>([](BinReader& in) { return static_cast<char>(in.U8()); });
  if (link_up_.size() != graph_->link_count()) {
    throw CorruptInput("link_up length differs from the link count");
  }
  if (node_up_.size() != graph_->node_count()) {
    throw CorruptInput("node_up length differs from the node count");
  }
  // PathAlive's fast path trusts these counts, so they must match the
  // up-arrays exactly. They are counts, not lengths: the up-arrays bound
  // them, not the bytes left in the payload.
  const std::uint64_t down_links = r.U64();
  const std::uint64_t down_nodes = r.U64();
  if (down_links != static_cast<std::uint64_t>(
                        std::count(link_up_.begin(), link_up_.end(), 0)) ||
      down_nodes != static_cast<std::uint64_t>(
                        std::count(node_up_.begin(), node_up_.end(), 0))) {
    throw CorruptInput("down counts disagree with the up-arrays");
  }
  down_links_ = static_cast<std::size_t>(down_links);
  down_nodes_ = static_cast<std::size_t>(down_nodes);
  epoch_ = r.U64();
  state_epoch_ = r.U64();
}

void Network::RebuildLinkFlows() {
  // Visiting flows in ascending id order appends each id once per link
  // occurrence on its path: the ascending lists, repeats included, that
  // Occupy keeps. The first pass sizes every list exactly, leaving no
  // growth slack for ApproxStateBytes to count.
  std::vector<std::size_t> lengths(graph_->link_count(), 0);
  for (const PathRef ref : placements_) {
    if (!ref.valid()) continue;
    for (LinkId lid : registry_->Get(ref).links) ++lengths[lid.value()];
  }
  link_flows_.assign(graph_->link_count(), {});
  for (std::size_t i = 0; i < link_flows_.size(); ++i) {
    link_flows_[i].reserve(lengths[i]);
  }
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    const PathRef ref = placements_[i];
    if (!ref.valid()) continue;
    for (LinkId lid : registry_->Get(ref).links) {
      link_flows_[lid.value()].push_back(static_cast<std::uint32_t>(i));
    }
  }
}

bool Network::CheckInvariants() const {
  // Recompute residuals from scratch.
  std::vector<Mbps> recomputed;
  recomputed.reserve(graph_->link_count());
  for (const topo::Link& l : graph_->links()) recomputed.push_back(l.capacity);
  bool placements_ok = true;
  std::size_t expected_entries = 0;
  ForEachPlacement([&](FlowId, const flow::Flow& f, const topo::Path& path) {
    if (!graph_->IsValidPath(path)) placements_ok = false;
    if (path.source() != f.src || path.destination() != f.dst) {
      placements_ok = false;
    }
    // No flow may keep occupying a failed link or switch.
    if (!PathAlive(path)) placements_ok = false;
    for (LinkId lid : path.links) recomputed[lid.value()] -= f.demand;
    expected_entries += path.links.size();
  });
  if (!placements_ok) return false;
  for (std::size_t i = 0; i < residual_.size(); ++i) {
    if (std::abs(recomputed[i] - residual_[i]) > 1e-3) return false;
    if (residual_[i] < -1e-3) return false;  // congestion-free invariant
  }
  // link_flows_ agrees with placements.
  std::size_t total_link_entries = 0;
  for (const auto& flows : link_flows_) {
    if (!std::is_sorted(flows.begin(), flows.end())) return false;
    total_link_entries += flows.size();
  }
  if (total_link_entries != expected_entries) return false;
  if (placed_count_ != flows_.size()) return false;
  return true;
}

}  // namespace nu::net
