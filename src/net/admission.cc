#include "net/admission.h"

#include <algorithm>
#include <limits>

#include "common/arena.h"
#include "common/check.h"
#include "net/residual_scan.h"

namespace nu::net {
namespace {

/// Per-thread scratch for the batched candidate scans. Admission runs
/// concurrently on the planner's probe workers, so the arena cannot be a
/// shared static; per-thread is safe (calls never nest) and a warmed arena
/// keeps the steady-state admission path allocation-free.
thread_local Arena t_scan_arena;

std::size_t MaxLinkCount(const std::vector<topo::Path>& candidates) {
  std::size_t max_links = 0;
  for (const topo::Path& p : candidates) {
    max_links = std::max(max_links, p.links.size());
  }
  return max_links;
}

}  // namespace

Mbps BottleneckResidual(const NetworkView& network, const topo::Path& path) {
  Mbps bottleneck = std::numeric_limits<double>::infinity();
  for (LinkId lid : path.links) {
    bottleneck = std::min(bottleneck, network.Residual(lid));
  }
  return bottleneck;
}

const topo::Path* FindFeasiblePathPtr(const NetworkView& network,
                                      const topo::PathProvider& paths,
                                      NodeId src, NodeId dst, Mbps demand,
                                      PathSelection selection) {
  const std::vector<topo::Path>& candidates = paths.Paths(src, dst);
  if (candidates.empty()) return nullptr;
  Arena& arena = t_scan_arena;
  arena.Reset();
  Mbps* row = arena.AllocArray<Mbps>(MaxLinkCount(candidates));
  const Mbps* residuals = network.ResidualData();

  const topo::Path* best = nullptr;
  Mbps best_bottleneck = 0.0;
  Mbps best_total = 0.0;
  for (const topo::Path& p : candidates) {
    if (!network.PathAlive(p)) continue;
    const std::span<const LinkId> links = p.links;
    GatherResiduals(residuals, links, row);
    // Feasible iff no link of the row is congested for `demand` — the same
    // ApproxGe predicate CanPlace applies link by link.
    if (CountCongested(row, links.size(), demand) != 0) continue;
    switch (selection) {
      case PathSelection::kFirstFit:
        return &p;
      case PathSelection::kWidest: {
        // Primary: max bottleneck. Secondary: max total residual — in
        // multi-rooted trees every candidate shares the host links, so the
        // bottleneck alone frequently ties and would always pack the first
        // fabric path. The total stays a scalar sum in path-link order:
        // tie-breaks compare exact doubles.
        const Mbps b = MinValue(row, links.size());
        Mbps t = 0.0;
        for (std::size_t i = 0; i < links.size(); ++i) t += row[i];
        if (best == nullptr || b > best_bottleneck ||
            (b == best_bottleneck && t > best_total)) {
          best = &p;
          best_bottleneck = b;
          best_total = t;
        }
        break;
      }
      case PathSelection::kBestFit: {
        const Mbps b = MinValue(row, links.size());
        Mbps t = 0.0;
        for (std::size_t i = 0; i < links.size(); ++i) t += row[i];
        if (best == nullptr || b < best_bottleneck ||
            (b == best_bottleneck && t < best_total)) {
          best = &p;
          best_bottleneck = b;
          best_total = t;
        }
        break;
      }
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
  Arena& arena = t_scan_arena;
  arena.Reset();
  Mbps* row = arena.AllocArray<Mbps>(MaxLinkCount(candidates));
  const Mbps* residuals = network.ResidualData();

  const topo::Path* best = nullptr;
  std::size_t best_congested = 0;
  Mbps best_bottleneck = 0.0;
  for (const topo::Path& p : candidates) {
    const std::span<const LinkId> links = p.links;
    GatherResiduals(residuals, links, row);
    const std::size_t congested = CountCongested(row, links.size(), demand);
    const Mbps bottleneck = MinValue(row, links.size());
    if (best == nullptr || congested < best_congested ||
        (congested == best_congested && bottleneck > best_bottleneck)) {
      best = &p;
      best_congested = congested;
      best_bottleneck = bottleneck;
    }
  }
  return *best;
}

}  // namespace nu::net
