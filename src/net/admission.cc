#include "net/admission.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace nu::net {
namespace {

/// One pass over a candidate's links, read in place from the view's flat
/// residual row.
struct PathScan {
  /// Links failing ApproxGe(residual, demand): the congested set E^c of
  /// Definition 1, link by link as CanPlace and CongestedLinks test it.
  std::size_t congested = 0;
  /// Minimum residual over the path.
  Mbps bottleneck = std::numeric_limits<double>::infinity();
  /// Residual summed in path-link order: tie-breaks compare exact doubles,
  /// so reassociating the sum would flip near-tie decisions.
  Mbps total = 0.0;
};

PathScan ScanPath(const Mbps* residuals, const topo::Path& path,
                  Mbps demand) {
  PathScan scan;
  for (const LinkId lid : path.links) {
    const Mbps residual = residuals[lid.value()];
    if (!ApproxGe(residual, demand)) ++scan.congested;
    scan.bottleneck = std::min(scan.bottleneck, residual);
    scan.total += residual;
  }
  return scan;
}

}  // namespace

const topo::Path* FindFeasiblePathPtr(const NetworkView& network,
                                      const topo::PathProvider& paths,
                                      NodeId src, NodeId dst, Mbps demand,
                                      PathSelection selection) {
  const Mbps* residuals = network.ResidualData();
  const topo::Path* best = nullptr;
  Mbps best_bottleneck = 0.0;
  Mbps best_total = 0.0;
  for (const topo::Path& p : paths.Paths(src, dst)) {
    if (!network.PathAlive(p)) continue;
    const PathScan scan = ScanPath(residuals, p, demand);
    if (scan.congested != 0) continue;
    const Mbps b = scan.bottleneck;
    const Mbps t = scan.total;
    switch (selection) {
      case PathSelection::kFirstFit:
        return &p;
      case PathSelection::kWidest:
        // Primary: max bottleneck. Secondary: max total residual — in
        // multi-rooted trees every candidate shares the host links, so the
        // bottleneck alone frequently ties and would always pack the first
        // fabric path.
        if (best == nullptr || b > best_bottleneck ||
            (b == best_bottleneck && t > best_total)) {
          best = &p;
          best_bottleneck = b;
          best_total = t;
        }
        break;
      case PathSelection::kBestFit:
        if (best == nullptr || b < best_bottleneck ||
            (b == best_bottleneck && t < best_total)) {
          best = &p;
          best_bottleneck = b;
          best_total = t;
        }
        break;
    }
  }
  return best;
}

std::optional<topo::Path> FindFeasiblePath(const NetworkView& network,
                                           const topo::PathProvider& paths,
                                           NodeId src, NodeId dst, Mbps demand,
                                           PathSelection selection) {
  const topo::Path* best =
      FindFeasiblePathPtr(network, paths, src, dst, demand, selection);
  if (best == nullptr) return std::nullopt;
  return *best;
}

bool CanAdmit(const NetworkView& network, const topo::PathProvider& paths,
              NodeId src, NodeId dst, Mbps demand) {
  return FindFeasiblePathPtr(network, paths, src, dst, demand,
                             PathSelection::kFirstFit) != nullptr;
}

const topo::Path& LeastCongestedPath(const NetworkView& network,
                                     const topo::PathProvider& paths,
                                     NodeId src, NodeId dst, Mbps demand) {
  const std::vector<topo::Path>& candidates = paths.Paths(src, dst);
  NU_EXPECTS(!candidates.empty());
  const Mbps* residuals = network.ResidualData();
  const topo::Path* best = nullptr;
  std::size_t best_congested = 0;
  Mbps best_bottleneck = 0.0;
  for (const topo::Path& p : candidates) {
    const PathScan scan = ScanPath(residuals, p, demand);
    if (best == nullptr || scan.congested < best_congested ||
        (scan.congested == best_congested &&
         scan.bottleneck > best_bottleneck)) {
      best = &p;
      best_congested = scan.congested;
      best_bottleneck = scan.bottleneck;
    }
  }
  return *best;
}

}  // namespace nu::net
