#include "net/network.h"

#include <algorithm>
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

FlowId Network::Place(flow::Flow flow, PathRef ref) {
  const topo::Path& path = registry_->Get(ref);
  NU_EXPECTS(graph_->IsValidPath(path));
  NU_EXPECTS(path.source() == flow.src);
  NU_EXPECTS(path.destination() == flow.dst);
  NU_EXPECTS(CanPlace(flow.demand, path));
  const Mbps demand = flow.demand;
  const FlowId id = flows_.Add(std::move(flow), ref);
  Occupy(path, demand, id);
  ++state_epoch_;
  return id;
}

FlowId Network::ForcePlace(flow::Flow flow, const topo::Path& path) {
  NU_EXPECTS(graph_->IsValidPath(path));
  NU_EXPECTS(path.source() == flow.src);
  NU_EXPECTS(path.destination() == flow.dst);
  const Mbps demand = flow.demand;
  const FlowId id = flows_.Add(std::move(flow), registry_->Intern(path));
  Occupy(path, demand, id);
  ++state_epoch_;
  return id;
}

void Network::Remove(FlowId id) {
  const PathRef ref = PathRefOf(id);
  const Mbps demand = flows_.Get(id).demand;
  Release(registry_->Get(ref), demand, id);
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
  flows_.SetPath(id, new_ref);
  ++state_epoch_;
}

PathRef Network::PathRefOf(FlowId id) const {
  const PathRef ref = flows_.PathOf(id);
  NU_EXPECTS(ref.valid());
  return ref;
}

std::span<const std::uint32_t> Network::LinkFlowIds(LinkId link) const {
  NU_EXPECTS(link.value() < link_flows_.size());
  return link_flows_[link.value()];
}

std::vector<FlowId> Network::PlacedFlows() const {
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  flows_.ForEach([&ids](const flow::Flow& f, PathRef) { ids.push_back(f.id); });
  return ids;
}

std::size_t Network::ApproxStateBytes() const {
  std::size_t bytes = residual_.capacity() * sizeof(Mbps) +
                      link_up_.capacity() + node_up_.capacity();
  for (const auto& flows : link_flows_) {
    bytes += sizeof(flows) + flows.capacity() * sizeof(std::uint32_t);
  }
  bytes += flows_.ApproxBytes();
  bytes += registry_->ApproxBytes();
  return bytes;
}

void Network::ShrinkToFit() {
  for (auto& flows : link_flows_) flows.shrink_to_fit();
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

template <typename Ar, typename Self>
void Network::Section(Ar& ar, Self& self) {
  // A snapshot of another topology is corrupt input, so recovery falls
  // back past it like past any other snapshot that does not load.
  const std::uint32_t expected = self.TopologyFingerprint();
  std::uint32_t fingerprint = expected;
  ar.U32(fingerprint);
  ar.Check(fingerprint == expected, "snapshot of another topology");
  ar.Part(self.flows_);
  const topo::Graph& graph = *self.graph_;
  ar.Seq(self.residual_, [](Ar& a, auto& v) { a.F64(v); });
  ar.Check(self.residual_.size() == graph.link_count(),
           "residual row length differs from the link count");

  // Used-paths table: distinct paths in first-use order over ascending flow
  // ids, then one (flow id, table index) placement per flow. Depends only
  // on the logical state — never on PathRef numbering. Loading re-interns
  // the table into the live registry (ref VALUES may differ from the saving
  // run's; only path contents are state) and checks each entry's ids and
  // shape, and each placed flow's endpoints against its path's.
  const auto path_entry = [&ar, &graph](auto& path) {
    ar.Seq(path.nodes, [&graph](Ar& a, auto& node) {
      a.U32(node);
      a.Check(node.value() < graph.node_count(), "path node id out of range");
    });
    ar.Seq(path.links, [&graph](Ar& a, auto& link) {
      a.U32(link);
      a.Check(link.value() < graph.link_count(), "path link id out of range");
    });
    ar.Check(path.nodes.size() >= 2 &&
                 path.links.size() + 1 == path.nodes.size(),
             "malformed path shape");
  };
  const auto placement = [&ar](auto& id, auto& index, std::size_t entries) {
    ar.U64(id);
    ar.Index(index, entries, "placement path index");
  };
  if constexpr (Ar::kLoading) {
    std::vector<PathRef> table(ar.Size());
    for (PathRef& ref : table) {
      topo::Path path;
      path_entry(path);
      ref = self.registry_->Intern(std::move(path));
    }
    const std::size_t placed = ar.Size();
    for (std::size_t i = 0; i < placed; ++i) {
      FlowId id;
      std::size_t index = 0;
      placement(id, index, table.size());
      ar.Check(self.flows_.Contains(id), "placement for an unknown flow id");
      ar.Check(!self.flows_.PathOf(id).valid(), "flow placed twice");
      const flow::Flow& f = self.flows_.Get(id);
      const topo::Path& path = self.registry_->Get(table[index]);
      ar.Check(path.source() == f.src && path.destination() == f.dst,
               "placed flow's endpoints differ from its path's");
      self.flows_.SetPath(id, table[index]);
    }
    // Every record above placed a distinct stored flow.
    ar.Check(placed == self.flows_.size(), "stored flow without a placement");
    self.RebuildLinkFlows();
  } else {
    constexpr std::uint32_t kUnused = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> table_index(self.registry_->size(), kUnused);
    std::vector<PathRef> table;
    self.flows_.ForEach([&](const flow::Flow&, PathRef ref) {
      std::uint32_t& index = table_index[ref.value()];
      if (index != kUnused) return;
      index = static_cast<std::uint32_t>(table.size());
      table.push_back(ref);
    });
    ar.Size(table.size());
    for (const PathRef ref : table) path_entry(self.registry_->Get(ref));
    ar.Size(self.flows_.size());
    self.flows_.ForEach([&](const flow::Flow& f, PathRef ref) {
      placement(f.id, table_index[ref.value()], table.size());
    });
  }

  ar.Seq(self.link_up_, [](Ar& a, auto& up) { a.U8(up); });
  ar.Seq(self.node_up_, [](Ar& a, auto& up) { a.U8(up); });
  ar.Check(self.link_up_.size() == graph.link_count(),
           "link_up length differs from the link count");
  ar.Check(self.node_up_.size() == graph.node_count(),
           "node_up length differs from the node count");
  // PathAlive's fast path trusts the down counts, so they must match the
  // up-arrays exactly. They are counts, not lengths: the up-arrays bound
  // them, not the bytes left in the payload.
  ar.U64(self.down_links_, self.down_nodes_, self.epoch_, self.state_epoch_);
  if constexpr (Ar::kLoading) {
    const auto down = [](const std::vector<char>& up) {
      return static_cast<std::size_t>(std::count(up.begin(), up.end(), 0));
    };
    ar.Check(self.down_links_ == down(self.link_up_) &&
                 self.down_nodes_ == down(self.node_up_),
             "down counts disagree with the up-arrays");
  }
}

void Network::SaveState(BinWriter& w) const { Section(w, *this); }
void Network::LoadState(BinReader& r) { Section(r, *this); }

void Network::RebuildLinkFlows() {
  // Visiting flows in ascending id order appends each id once per link
  // occurrence on its path: the ascending lists, repeats included, that
  // Occupy keeps. The first pass sizes every list exactly, leaving no
  // growth slack for ApproxStateBytes to count.
  std::vector<std::size_t> lengths(graph_->link_count(), 0);
  flows_.ForEach([&](const flow::Flow&, PathRef ref) {
    for (LinkId lid : registry_->Get(ref).links) ++lengths[lid.value()];
  });
  link_flows_.assign(graph_->link_count(), {});
  for (std::size_t i = 0; i < link_flows_.size(); ++i) {
    link_flows_[i].reserve(lengths[i]);
  }
  flows_.ForEach([&](const flow::Flow& f, PathRef ref) {
    for (LinkId lid : registry_->Get(ref).links) {
      link_flows_[lid.value()].push_back(Rep32(f.id));
    }
  });
}

}  // namespace nu::net
