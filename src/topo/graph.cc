#include "topo/graph.h"

#include <algorithm>

namespace nu::topo {

const char* ToString(NodeRole role) {
  switch (role) {
    case NodeRole::kHost:
      return "host";
    case NodeRole::kEdgeSwitch:
      return "edge";
    case NodeRole::kAggSwitch:
      return "agg";
    case NodeRole::kCoreSwitch:
      return "core";
    case NodeRole::kGeneric:
      return "node";
  }
  return "?";
}

NodeId Graph::AddNode(NodeRole role, std::string name) {
  const NodeId id{static_cast<NodeId::rep_type>(nodes_.size())};
  if (name.empty()) {
    name = std::string(ToString(role)) + "-" + std::to_string(id.value());
  }
  nodes_.push_back(Node{id, role, std::move(name)});
  out_links_.emplace_back();
  in_links_.emplace_back();
  return id;
}

LinkId Graph::AddLink(NodeId src, NodeId dst, Mbps capacity) {
  NU_EXPECTS(src.value() < nodes_.size());
  NU_EXPECTS(dst.value() < nodes_.size());
  NU_EXPECTS(src != dst);
  NU_EXPECTS(capacity > 0.0);
  const LinkId id{static_cast<LinkId::rep_type>(links_.size())};
  links_.push_back(Link{id, src, dst, capacity});
  out_links_[src.value()].push_back(id);
  in_links_[dst.value()].push_back(id);
  return id;
}

std::pair<LinkId, LinkId> Graph::AddBidirectional(NodeId a, NodeId b,
                                                  Mbps capacity) {
  return {AddLink(a, b, capacity), AddLink(b, a, capacity)};
}

std::span<const LinkId> Graph::OutLinks(NodeId node) const {
  NU_EXPECTS(node.value() < nodes_.size());
  return out_links_[node.value()];
}

std::span<const LinkId> Graph::InLinks(NodeId node) const {
  NU_EXPECTS(node.value() < nodes_.size());
  return in_links_[node.value()];
}

LinkId Graph::FindLink(NodeId src, NodeId dst) const {
  NU_EXPECTS(src.value() < nodes_.size());
  for (LinkId id : out_links_[src.value()]) {
    if (links_[id.value()].dst == dst) return id;
  }
  return LinkId::invalid();
}

std::vector<NodeId> Graph::NodesWithRole(NodeRole role) const {
  std::vector<NodeId> result;
  for (const Node& n : nodes_) {
    if (n.role == role) result.push_back(n.id);
  }
  return result;
}

namespace {

/// Longest node sequence checked for repeats by the pairwise scan; longer
/// ones are sorted in a reused per-thread buffer instead.
constexpr std::size_t kPairwiseRepeatScan = 16;

bool HasRepeatedNode(const std::vector<NodeId>& nodes) {
  if (nodes.size() <= kPairwiseRepeatScan) {
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (nodes[i] == nodes[j]) return true;
      }
    }
    return false;
  }
  thread_local std::vector<NodeId> sorted;
  sorted.assign(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

}  // namespace

bool Graph::IsValidPath(const Path& path) const {
  if (path.nodes.empty()) return false;
  if (path.links.size() + 1 != path.nodes.size()) return false;
  for (NodeId n : path.nodes) {
    if (n.value() >= nodes_.size()) return false;
  }
  if (HasRepeatedNode(path.nodes)) return false;
  for (std::size_t i = 0; i < path.links.size(); ++i) {
    const LinkId lid = path.links[i];
    if (lid.value() >= links_.size()) return false;
    const Link& l = links_[lid.value()];
    if (l.src != path.nodes[i] || l.dst != path.nodes[i + 1]) return false;
  }
  return true;
}

Path Graph::MakePath(std::span<const NodeId> node_sequence) const {
  NU_EXPECTS(!node_sequence.empty());
  Path path;
  path.nodes.assign(node_sequence.begin(), node_sequence.end());
  path.links.reserve(node_sequence.size() - 1);
  for (std::size_t i = 0; i + 1 < node_sequence.size(); ++i) {
    const LinkId lid = FindLink(node_sequence[i], node_sequence[i + 1]);
    NU_CHECK(lid.valid());
    path.links.push_back(lid);
  }
  NU_ENSURES(IsValidPath(path));
  return path;
}

}  // namespace nu::topo
