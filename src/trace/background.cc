#include "trace/background.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "flow/flow.h"

namespace nu::trace {

namespace {

bool Fits(const Mbps* residual, std::span<const Mbps> reserve,
          const topo::Path& p, Mbps demand) {
  for (LinkId lid : p.links) {
    if (!ApproxGe(residual[lid.value()] - demand, reserve[lid.value()])) {
      return false;
    }
  }
  return true;
}

/// Widest path satisfying the headroom constraint, or null.
const topo::Path* FindPathWithHeadroom(const net::Network& network,
                                       const topo::PathProvider& paths,
                                       NodeId src, NodeId dst, Mbps demand,
                                       std::span<const Mbps> reserve) {
  const Mbps* residual = network.ResidualData();
  const topo::Path* best = nullptr;
  Mbps best_bottleneck = 0.0;
  for (const topo::Path& p : paths.Paths(src, dst)) {
    if (!Fits(residual, reserve, p, demand)) continue;
    Mbps bottleneck = std::numeric_limits<double>::infinity();
    for (LinkId lid : p.links) {
      bottleneck = std::min(bottleneck, residual[lid.value()]);
    }
    if (best == nullptr || bottleneck > best_bottleneck) {
      best = &p;
      best_bottleneck = bottleneck;
    }
  }
  return best;
}

/// Slack over the rounding in the utilization sums and the residual
/// updates: a mean of n terms in [0, 1] is off by at most about n * 2^-53,
/// far below this for any topology that fits in memory.
constexpr double kRiseSlack = 1e-9;

/// Per-link rise of the injection's utilization measure per Mbps placed:
/// 1 / (capacity * counted links) on each link the measure averages over,
/// 0 elsewhere. The fabric measure counts links that touch no host and,
/// like FabricUtilization, falls back to every link when there are none.
std::vector<double> UtilizationRisePerMbps(const topo::Graph& graph,
                                           bool fabric) {
  const auto fabric_link = [&](const topo::Link& l) {
    return graph.node(l.src).role != topo::NodeRole::kHost &&
           graph.node(l.dst).role != topo::NodeRole::kHost;
  };
  const std::span<const topo::Link> links = graph.links();
  const auto fabric_links = static_cast<std::size_t>(
      std::count_if(links.begin(), links.end(), fabric_link));
  const bool every_link = !fabric || fabric_links == 0;
  const double counted =
      static_cast<double>(every_link ? links.size() : fabric_links);
  std::vector<double> rise(links.size(), 0.0);
  for (const topo::Link& l : links) {
    if (every_link || fabric_link(l)) {
      rise[l.id.value()] = 1.0 / (l.capacity * counted);
    }
  }
  return rise;
}

}  // namespace

std::vector<Mbps> HeadroomReserve(const topo::Graph& graph,
                                  const BackgroundOptions& options) {
  std::vector<Mbps> reserve;
  reserve.reserve(graph.link_count());
  for (const topo::Link& link : graph.links()) {
    const bool touches_host =
        graph.node(link.src).role == topo::NodeRole::kHost ||
        graph.node(link.dst).role == topo::NodeRole::kHost;
    const double headroom =
        touches_host
            ? std::max(options.link_headroom, options.host_link_headroom)
            : options.link_headroom;
    reserve.push_back(headroom * link.capacity);
  }
  return reserve;
}

bool FitsWithHeadroom(const net::NetworkView& network,
                      std::span<const Mbps> reserve, const topo::Path& p,
                      Mbps demand) {
  return Fits(network.ResidualData(), reserve, p, demand);
}

const topo::Path* FindRandomPathWithHeadroom(
    const net::NetworkView& network, const topo::PathProvider& paths,
    NodeId src, NodeId dst, Mbps demand, std::span<const Mbps> reserve,
    Rng& rng) {
  const Mbps* residual = network.ResidualData();
  // Reused across calls: a steady-state draw allocates nothing.
  thread_local std::vector<const topo::Path*> feasible;
  feasible.clear();
  for (const topo::Path& p : paths.Paths(src, dst)) {
    if (Fits(residual, reserve, p, demand)) feasible.push_back(&p);
  }
  if (feasible.empty()) return nullptr;
  return feasible[rng.Index(feasible.size())];
}

BackgroundResult InjectBackground(net::Network& network,
                                  const topo::PathProvider& paths,
                                  TrafficGenerator& generator,
                                  const BackgroundOptions& options) {
  NU_EXPECTS(options.target_utilization >= 0.0 &&
             options.target_utilization < 1.0);
  NU_EXPECTS(options.link_headroom >= 0.0 && options.link_headroom < 1.0);
  BackgroundResult result;
  std::size_t consecutive_failures = 0;
  Rng path_rng(options.random_path_seed);
  const std::vector<Mbps> reserve = HeadroomReserve(network.graph(), options);
  const auto measured_utilization = [&] {
    return options.target_fabric_utilization ? network.FabricUtilization()
                                             : network.AverageUtilization();
  };
  // Place only lowers residuals, so the measure never falls, and a
  // placement raises it by at most its demand times the rise row summed
  // over its path. `measured` is the last exact value and `rise` bounds the
  // growth since; the pass over every link runs only once that bound
  // reaches the target, so the loop stops where measuring every time did.
  const std::vector<double> rise_per_mbps = UtilizationRisePerMbps(
      network.graph(), options.target_fabric_utilization);
  double measured = measured_utilization();
  double rise = 0.0;
  bool stale = false;
  const auto below_target = [&] {
    if (stale) {
      if (measured + rise + kRiseSlack < options.target_utilization) {
        return true;
      }
      measured = measured_utilization();
      rise = 0.0;
      stale = false;
    }
    return measured < options.target_utilization;
  };

  while (below_target() && result.placed_flows < options.max_flows &&
         consecutive_failures < options.max_consecutive_failures) {
    const FlowSpec spec = generator.Next();
    const topo::Path* path = nullptr;
    if (options.random_path_seed != 0) {
      path = FindRandomPathWithHeadroom(network, paths, spec.src, spec.dst,
                                        spec.demand, reserve, path_rng);
    } else if (options.link_headroom > 0.0 ||
               options.host_link_headroom > 0.0) {
      path = FindPathWithHeadroom(network, paths, spec.src, spec.dst,
                                  spec.demand, reserve);
    } else {
      path = net::FindFeasiblePathPtr(network, paths, spec.src, spec.dst,
                                      spec.demand, options.path_selection);
    }
    if (path == nullptr) {
      ++result.rejected_flows;
      ++consecutive_failures;
      continue;
    }
    consecutive_failures = 0;
    flow::Flow f;
    f.src = spec.src;
    f.dst = spec.dst;
    f.demand = spec.demand;
    f.duration = spec.duration;
    f.origin = flow::FlowOrigin::kBackground;
    for (LinkId lid : path->links) {
      rise += spec.demand * rise_per_mbps[lid.value()];
    }
    stale = true;
    network.Place(std::move(f), *path);
    ++result.placed_flows;
  }

  result.achieved_utilization = measured_utilization();
  if (result.achieved_utilization < options.target_utilization) {
    NU_LOG_INFO << "background injection saturated at "
                << result.achieved_utilization << " (target "
                << options.target_utilization << ") after "
                << result.placed_flows << " flows";
  }
  return result;
}

}  // namespace nu::trace
