// Pod-level fabric partition for the sharded simulation engine. A k-ary
// Fat-Tree is naturally k shards: every pod (its hosts, edge and agg
// switches, and their internal links) is one unit of locality, and only the
// core layer is shared. ShardMap captures that partition generically:
// connected components of the subgraph with the core switches removed. In a
// Fat-Tree each component IS a pod; in a leaf-spine each component is a
// rack subtree. Components are numbered by their smallest node id
// (deterministic) and folded onto the requested shard count round-robin;
// core switches are striped the same way. Graphs whose component structure
// is too coarse (fewer components than shards) fall back to striping every
// node by id, so the map is total for any topology.
//
// The map is immutable after construction and safe to share across worker
// threads.
#pragma once

#include <cstddef>
#include <vector>

#include "topo/graph.h"

namespace nu::topo {

class ShardMap {
 public:
  /// Partitions `graph` into `shards` shards (>= 1) as described above.
  ShardMap(const Graph& graph, std::size_t shards);

  [[nodiscard]] std::size_t shard_count() const { return shards_; }

  /// Shard of a node (total: every node is assigned).
  [[nodiscard]] std::size_t ShardOf(NodeId node) const {
    NU_EXPECTS(node.value() < node_shard_.size());
    return node_shard_[node.value()];
  }

 private:
  std::size_t shards_ = 1;
  std::vector<std::size_t> node_shard_;  // by NodeId
};

}  // namespace nu::topo
