#include "topo/shard_map.h"

#include <numeric>

namespace nu::topo {
namespace {

/// Union-find over node ids (path-halving + union by smaller root, so the
/// representative of each component is its smallest node id).
class Components {
 public:
  explicit Components(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

ShardMap::ShardMap(const Graph& graph, std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {
  const std::size_t n = graph.node_count();
  node_shard_.assign(n, 0);

  // Components of the core-less subgraph. Each union uses the link's two
  // endpoints; links touching a core switch are skipped, so pods (or rack
  // subtrees) stay separate.
  Components components(n);
  auto is_core = [&graph](NodeId id) {
    return graph.node(id).role == NodeRole::kCoreSwitch;
  };
  for (const Link& link : graph.links()) {
    if (is_core(link.src) || is_core(link.dst)) continue;
    components.Union(link.src.value(), link.dst.value());
  }

  // Number the components by smallest member id (the union-find
  // representative), counting only non-core components.
  std::vector<std::size_t> component_index(n, 0);
  std::size_t component_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (is_core(NodeId{static_cast<NodeId::rep_type>(v)})) continue;
    const std::size_t root = components.Find(v);
    if (root == v) component_index[v] = component_count++;
  }

  if (component_count >= shards_) {
    // Pod partition: component c -> shard c % shards, cores striped by
    // their position among the core switches.
    std::size_t core_seen = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const NodeId id{static_cast<NodeId::rep_type>(v)};
      node_shard_[v] = is_core(id)
                           ? core_seen++ % shards_
                           : component_index[components.Find(v)] % shards_;
    }
  } else {
    // Too few components (e.g. a random graph with no core layer): stripe
    // every node by id so the map is total and balanced.
    for (std::size_t v = 0; v < n; ++v) node_shard_[v] = v % shards_;
  }
}

}  // namespace nu::topo
