// Hand-built net::Network::LoadState payloads. Network::Place rejects
// malformed paths, so a test that needs one placed (for the auditor to
// find) or needs out-of-range ids (for LoadState to reject) writes the
// snapshot bytes itself, in the field order Network::SaveState uses.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/binio.h"
#include "flow/flow_table.h"
#include "net/network.h"
#include "topo/graph.h"

namespace nu::test_support {

struct CraftedPlacement {
  flow::Flow flow;
  /// Written verbatim into the used-paths table.
  topo::Path path;
};

/// Payload of a network over `graph` with every element up. Placement i
/// holds flow id `first_id + i` on table entry i; ids beyond the stored
/// flows let a test plant an unknown flow id. Residuals equal capacity
/// minus the in-range links' recomputed load, so capacity checks pass.
inline std::string NetworkPayload(const topo::Graph& graph,
                                  std::span<const CraftedPlacement> placements,
                                  std::uint64_t first_id = 0) {
  BinWriter w;
  w.U32(net::Network(graph).TopologyFingerprint());
  flow::FlowTable flows;
  std::vector<Mbps> residual;
  std::vector<std::vector<std::uint32_t>> link_flows(graph.link_count());
  for (const topo::Link& l : graph.links()) residual.push_back(l.capacity);
  for (const CraftedPlacement& p : placements) {
    const FlowId id = flows.Add(p.flow);
    for (LinkId link : p.path.links) {
      if (link.value() >= graph.link_count()) continue;
      residual[link.value()] -= p.flow.demand;
      link_flows[link.value()].push_back(
          static_cast<std::uint32_t>(id.value()));
    }
  }
  flows.SaveState(w);
  w.Vec(residual, [](BinWriter& out, Mbps v) { out.F64(v); });
  w.Size(link_flows.size());
  for (const auto& ids : link_flows) {
    w.Vec(ids, [](BinWriter& out, std::uint32_t id) { out.U64(id); });
  }
  w.Size(placements.size());
  for (const CraftedPlacement& p : placements) {
    w.Vec(p.path.nodes, [](BinWriter& out, NodeId n) { out.U32(n.value()); });
    w.Vec(p.path.links, [](BinWriter& out, LinkId l) { out.U32(l.value()); });
  }
  w.Size(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    w.U64(first_id + i);
    w.Size(i);
  }
  w.Vec(std::vector<char>(graph.link_count(), 1),
        [](BinWriter& out, char v) { out.U8(static_cast<std::uint8_t>(v)); });
  w.Vec(std::vector<char>(graph.node_count(), 1),
        [](BinWriter& out, char v) { out.U8(static_cast<std::uint8_t>(v)); });
  w.Size(0);  // down links
  w.Size(0);  // down nodes
  w.U64(0);   // topology epoch
  w.U64(0);   // state epoch
  return w.TakeBuffer();
}

}  // namespace nu::test_support
