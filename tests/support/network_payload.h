// Hand-built net::Network::LoadState payloads. Network::Place rejects
// malformed paths, so a test that needs one placed (for the auditor to
// find) or needs out-of-range ids or inconsistent tables (for LoadState to
// reject) writes the snapshot bytes itself, in the field order
// Network::SaveState uses. NetworkFields() builds a consistent payload as
// plain values; a test edits the field it wants broken and serializes the
// result with SerializeNetwork().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "net/network.h"
#include "topo/graph.h"

namespace nu::test_support {

struct CraftedPlacement {
  flow::Flow flow;
  /// Written verbatim into the used-paths table.
  topo::Path path;
};

/// Every field of a Network::SaveState payload (format v9), in write order.
/// The per-link flow lists are not among them: LoadState rebuilds them from
/// the placements.
struct NetworkFieldValues {
  std::uint32_t fingerprint = 0;
  /// FlowTable section: the next id, then one record per entry of `flows`
  /// (ids as stored in each flow, in list order).
  std::uint64_t next_id = 0;
  std::vector<flow::Flow> flows;
  std::vector<Mbps> residual;
  /// Used-paths table, then (flow id, table index) placements.
  std::vector<topo::Path> table;
  std::vector<std::pair<std::uint64_t, std::size_t>> placed;
  std::vector<char> link_up;
  std::vector<char> node_up;
  std::size_t down_links = 0;
  std::size_t down_nodes = 0;
  std::uint64_t topology_epoch = 0;
  std::uint64_t state_epoch = 0;
};

/// Fields of a network over `graph` with every element up. Flow i gets id
/// i; placement i holds flow id `first_id + i` on table entry i, so ids
/// beyond the stored flows let a test plant an unknown flow id. Residuals
/// equal capacity minus the in-range links' recomputed load, so capacity
/// checks pass.
inline NetworkFieldValues NetworkFields(
    const topo::Graph& graph, std::span<const CraftedPlacement> placements,
    std::uint64_t first_id = 0) {
  NetworkFieldValues v;
  v.fingerprint = net::Network(graph).TopologyFingerprint();
  v.next_id = placements.size();
  for (const topo::Link& l : graph.links()) v.residual.push_back(l.capacity);
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const CraftedPlacement& p = placements[i];
    flow::Flow f = p.flow;
    f.id = FlowId{static_cast<FlowId::rep_type>(i)};
    v.flows.push_back(f);
    for (LinkId link : p.path.links) {
      if (link.value() >= graph.link_count()) continue;
      v.residual[link.value()] -= p.flow.demand;
    }
    v.table.push_back(p.path);
    v.placed.emplace_back(first_id + i, i);
  }
  v.link_up.assign(graph.link_count(), 1);
  v.node_up.assign(graph.node_count(), 1);
  return v;
}

inline std::string SerializeNetwork(const NetworkFieldValues& v) {
  BinWriter w;
  w.U32(v.fingerprint);
  w.U64(v.next_id);
  w.Size(v.flows.size());
  for (const flow::Flow& f : v.flows) {  // FlowTable::SaveState's record
    w.U64(f.id.value());
    w.U32(f.src.value());
    w.U32(f.dst.value());
    w.F64(f.demand);
    w.F64(f.duration);
    w.U8(static_cast<std::uint8_t>(f.origin));
    w.U64(f.event.value());
  }
  w.Seq(v.residual, [](BinWriter& out, Mbps r) { out.F64(r); });
  w.Size(v.table.size());
  for (const topo::Path& path : v.table) {
    w.Seq(path.nodes, [](BinWriter& out, NodeId n) { out.U32(n.value()); });
    w.Seq(path.links, [](BinWriter& out, LinkId l) { out.U32(l.value()); });
  }
  w.Size(v.placed.size());
  for (const auto& [id, index] : v.placed) {
    w.U64(id);
    w.Size(index);
  }
  const auto up_byte = [](BinWriter& out, char up) {
    out.U8(static_cast<std::uint8_t>(up));
  };
  w.Seq(v.link_up, up_byte);
  w.Seq(v.node_up, up_byte);
  w.Size(v.down_links);
  w.Size(v.down_nodes);
  w.U64(v.topology_epoch);
  w.U64(v.state_epoch);
  return w.TakeBuffer();
}

/// Payload of NetworkFields(graph, placements, first_id), unmodified.
inline std::string NetworkPayload(const topo::Graph& graph,
                                  std::span<const CraftedPlacement> placements,
                                  std::uint64_t first_id = 0) {
  return SerializeNetwork(NetworkFields(graph, placements, first_id));
}

}  // namespace nu::test_support
