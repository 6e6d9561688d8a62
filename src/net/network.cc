#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

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
  capacity_.reserve(graph.link_count());
  for (const topo::Link& l : graph.links()) {
    residual_.push_back(l.capacity);
    capacity_.push_back(l.capacity);
  }
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

double Network::AverageUtilization() const {
  if (graph_->link_count() == 0) return 0.0;
  double sum = 0.0;
  for (const topo::Link& l : graph_->links()) sum += Utilization(l.id);
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
    sum += Utilization(l.id);
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
      sum += Utilization(l.id);
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

FlowId Network::Place(flow::Flow flow, const topo::Path& path) {
  NU_EXPECTS(graph_->IsValidPath(path));
  NU_EXPECTS(path.source() == flow.src);
  NU_EXPECTS(path.destination() == flow.dst);
  NU_EXPECTS(CanPlace(flow.demand, path));
  const Mbps demand = flow.demand;
  const FlowId id = flows_.Add(std::move(flow));
  Occupy(path, demand, id);
  StorePlacement(id, registry_->Intern(path));
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

void Network::Reroute(FlowId id, const topo::Path& new_path) {
  const PathRef old_ref = PathRefOf(id);
  const flow::Flow& f = flows_.Get(id);
  NU_EXPECTS(graph_->IsValidPath(new_path));
  NU_EXPECTS(new_path.source() == f.src);
  NU_EXPECTS(new_path.destination() == f.dst);
  const Mbps demand = f.demand;
  // Release first so the flow's own bandwidth on shared links counts toward
  // the feasibility of the new path.
  Release(registry_->Get(old_ref), demand, id);
  NU_CHECK(CanPlace(demand, new_path));
  Occupy(new_path, demand, id);
  placements_[static_cast<std::size_t>(id.value())] =
      registry_->Intern(new_path);
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
  w.Size(link_flows_.size());
  for (const auto& flows : link_flows_) {
    w.Vec(flows, [](BinWriter& out, std::uint32_t rep) {
      out.U64(rep);  // U64 on the wire for format stability
    });
  }
  // Used-paths table: distinct paths in first-use order over ascending flow
  // ids. Depends only on the logical state — never on PathRef numbering.
  std::unordered_map<std::uint32_t, std::size_t> table_index;
  std::vector<PathRef> table;
  std::vector<std::pair<std::uint64_t, std::size_t>> placed;  // id, index
  placed.reserve(placed_count_);
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    const PathRef ref = placements_[i];
    if (!ref.valid()) continue;
    const auto [it, inserted] = table_index.emplace(ref.value(), table.size());
    if (inserted) table.push_back(ref);
    placed.emplace_back(static_cast<std::uint64_t>(i), it->second);
  }
  w.Size(table.size());
  for (const PathRef ref : table) SavePath(w, registry_->Get(ref));
  w.Size(placed.size());
  for (const auto& [id, index] : placed) {
    w.U64(id);
    w.Size(index);
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
  NU_CHECK(residual_.size() == graph_->link_count());
  const std::size_t link_count = r.Size();
  NU_CHECK(link_count == graph_->link_count());
  link_flows_.assign(link_count, {});
  for (std::size_t i = 0; i < link_count; ++i) {
    link_flows_[i] = r.Vec<std::uint32_t>([](BinReader& in) {
      const std::uint64_t rep = in.U64();
      NU_CHECK(rep < std::numeric_limits<std::uint32_t>::max());
      return static_cast<std::uint32_t>(rep);
    });
    NU_CHECK(std::is_sorted(link_flows_[i].begin(), link_flows_[i].end()));
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
    const std::size_t index = r.Size();
    if (!flows_.Contains(id)) {  // also bounds id below placements_.size()
      throw CorruptInput("placement for an unknown flow id");
    }
    if (index >= table.size()) {
      throw CorruptInput("placement path index out of range");
    }
    StorePlacement(id, table[index]);
  }
  link_up_ = r.Vec<char>([](BinReader& in) { return static_cast<char>(in.U8()); });
  node_up_ = r.Vec<char>([](BinReader& in) { return static_cast<char>(in.U8()); });
  NU_CHECK(link_up_.size() == graph_->link_count());
  NU_CHECK(node_up_.size() == graph_->node_count());
  down_links_ = r.Size();
  down_nodes_ = r.Size();
  epoch_ = r.U64();
  state_epoch_ = r.U64();
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
