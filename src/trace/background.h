// Background-traffic injection: fills the network with existing flows until
// a target utilization is reached — "we inject a large amount of traffic ...
// as background traffic, so that the network utilization grows up to 70%".
// These are the flows the migration optimizer later moves around.
#pragma once

#include <span>
#include <vector>

#include "net/admission.h"
#include "net/network.h"
#include "trace/generator.h"

namespace nu::trace {

struct BackgroundOptions {
  /// Stop once the utilization measure reaches this value.
  double target_utilization = 0.7;
  /// When true the target applies to FabricUtilization() (core contention,
  /// the regime the paper's "network utilization" sweeps); otherwise to
  /// AverageUtilization() over all links.
  bool target_fabric_utilization = false;
  /// Give up after this many consecutive flows that fit on no path.
  std::size_t max_consecutive_failures = 200;
  /// Hard cap on placed background flows (safety for tiny topologies).
  std::size_t max_flows = 1'000'000;
  net::PathSelection path_selection = net::PathSelection::kWidest;
  /// Fraction of every link's capacity kept free of background traffic —
  /// the "scratch capacity" congestion-free update systems reserve (SWAN
  /// leaves 10-15%). Zero means background may saturate links, in which
  /// case flows from a saturated host can never be admitted (the regime
  /// the paper's Fig. 1 probes).
  double link_headroom = 0.0;
  /// Headroom for links incident to a host. Benson et al. observe that edge
  /// links run far below core-link utilization (servers rarely saturate
  /// their NICs while the fabric is contended); reserving more on host
  /// links reproduces that shape and keeps single-homed hosts reachable —
  /// a saturated host uplink can never be relieved by migration. Values
  /// below link_headroom are ignored (the larger wins).
  double host_link_headroom = 0.0;
  /// When nonzero, each flow is placed on a uniformly random feasible
  /// candidate path (per-flow ECMP hashing) instead of the widest one.
  /// Hash placement leaves fabric hotspots — the congestion that makes the
  /// paper's local-migration machinery earn its keep.
  std::uint64_t random_path_seed = 0;
};

struct BackgroundResult {
  std::size_t placed_flows = 0;
  std::size_t rejected_flows = 0;
  double achieved_utilization = 0.0;
};

/// Draws flows from `generator` and places each on a feasible path until the
/// utilization target is met. Rejected flows (no feasible path) are skipped;
/// injection also stops after `max_consecutive_failures` rejections in a row,
/// which happens when the target exceeds what admission without migration
/// can reach.
BackgroundResult InjectBackground(net::Network& network,
                                  const topo::PathProvider& paths,
                                  TrafficGenerator& generator,
                                  const BackgroundOptions& options = {});

/// Per-link reserve row of the headroom rule, indexed by LinkId value: the
/// bandwidth each link keeps free of background traffic, headroom *
/// capacity, where host-incident links use the larger of link_headroom and
/// host_link_headroom. Build it once per run; it depends only on the graph
/// and the options.
[[nodiscard]] std::vector<Mbps> HeadroomReserve(
    const topo::Graph& graph, const BackgroundOptions& options);

/// True when every link of `p` keeps its reserve after placing `demand`.
[[nodiscard]] bool FitsWithHeadroom(const net::NetworkView& network,
                                    std::span<const Mbps> reserve,
                                    const topo::Path& p, Mbps demand);

/// Uniformly random candidate path of (src, dst) that fits its reserve
/// (per-flow ECMP-hash placement), or null when none fits. Points into
/// `paths`' candidate set; draws one rng.Index over the fitting candidates
/// and allocates nothing once warmed. Used by initial injection and by the
/// simulator's background churn to place replacement flows.
[[nodiscard]] const topo::Path* FindRandomPathWithHeadroom(
    const net::NetworkView& network, const topo::PathProvider& paths,
    NodeId src, NodeId dst, Mbps demand, std::span<const Mbps> reserve,
    Rng& rng);

}  // namespace nu::trace
