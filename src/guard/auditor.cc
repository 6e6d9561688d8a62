#include "guard/auditor.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <unordered_set>

#include "common/check.h"
#include "common/logging.h"

namespace nu::guard {
namespace {

/// Residual/occupancy comparisons tolerate accumulated floating-point noise
/// from incremental Occupy/Release updates.
constexpr double kBandwidthEpsilon = 1e-6;

/// One violation detected by a recompute: text only, no side effects.
/// Reporting (logging, counting, fail-fast throwing) happens afterwards in
/// canonical order: capacity by ascending link id, then coherence by
/// ascending flow id. `flow` keys that sort (coherence findings only).
struct Finding {
  const char* invariant;
  std::string detail;
  FlowId::rep_type flow = 0;
};

/// Capacity checks for one link given its independently recomputed load.
/// Emission order (residual disagreement, overcommit, negative residual) is
/// part of the canonical violation order.
void CollectCapacityFindings(std::size_t link_index, Mbps capacity,
                             Mbps load, Mbps residual, bool allow_overcommit,
                             std::vector<Finding>& out) {
  if (std::abs((capacity - load) - residual) > kBandwidthEpsilon) {
    std::ostringstream os;
    os << "link " << link_index << ": residual " << residual
       << " disagrees with recomputed " << (capacity - load) << " (capacity "
       << capacity << ", load " << load << ")";
    out.push_back(Finding{"capacity", os.str()});
  }
  if (!allow_overcommit && load > capacity + kBandwidthEpsilon) {
    std::ostringstream os;
    os << "link " << link_index << ": reserved " << load
       << " exceeds capacity " << capacity;
    out.push_back(Finding{"capacity", os.str()});
  }
  if (!allow_overcommit && residual < -kBandwidthEpsilon) {
    std::ostringstream os;
    os << "link " << link_index << ": negative residual " << residual;
    out.push_back(Finding{"capacity", os.str()});
  }
}

bool WellShaped(const topo::Path& path) {
  return !path.nodes.empty() && path.links.size() + 1 == path.nodes.size();
}

/// Requires WellShaped(path).
bool Contiguous(const topo::Graph& graph, const topo::Path& path) {
  for (std::size_t i = 0; i < path.links.size(); ++i) {
    const topo::Link& link = graph.link(path.links[i]);
    if (link.src != path.nodes[i] || link.dst != path.nodes[i + 1]) {
      return false;
    }
  }
  return true;
}

bool LoopFree(const topo::Path& path) {
  std::unordered_set<NodeId::rep_type> seen;
  for (NodeId node : path.nodes) {
    if (!seen.insert(node.value()).second) return false;
  }
  return true;
}

/// Structural coherence checks for one placed flow. The single source of
/// coherence finding text and order; the memoized pass calls it only for
/// flows whose fast check failed.
void CollectCoherenceFindings(const topo::Graph& graph,
                              const net::Network& network,
                              const flow::Flow& flow, const topo::Path& path,
                              bool allow_dead_paths,
                              std::vector<Finding>& out) {
  const FlowId fid = flow.id;
  const auto add = [&out, fid](const std::ostringstream& os) {
    out.push_back(Finding{"coherence", os.str(), fid.value()});
  };
  if (!WellShaped(path)) {
    std::ostringstream os;
    os << "flow " << fid.value() << ": malformed path shape ("
       << path.nodes.size() << " nodes, " << path.links.size() << " links)";
    add(os);
    return;  // the structural checks below assume a sane shape
  }
  if (path.source() != flow.src || path.destination() != flow.dst) {
    std::ostringstream os;
    os << "flow " << fid.value() << ": path endpoints ("
       << path.source().value() << " -> " << path.destination().value()
       << ") do not match flow (" << flow.src.value() << " -> "
       << flow.dst.value() << ")";
    add(os);
  }
  if (!Contiguous(graph, path)) {
    std::ostringstream os;
    os << "flow " << fid.value()
       << ": path links do not connect its node sequence (blackhole)";
    add(os);
  }
  if (!LoopFree(path)) {
    std::ostringstream os;
    os << "flow " << fid.value() << ": forwarding loop (repeated node)";
    add(os);
  }
  if (!allow_dead_paths && !network.PathAlive(path)) {
    std::ostringstream os;
    os << "flow " << fid.value()
       << ": path crosses a down link or switch (blackhole)";
    add(os);
  }
}

}  // namespace

const char* ToString(AuditMode mode) {
  switch (mode) {
    case AuditMode::kLogAndCount:
      return "log-and-count";
    case AuditMode::kFailFast:
      return "fail-fast";
  }
  return "unknown";
}

AuditFailure::AuditFailure(AuditViolation violation)
    : std::runtime_error("audit violation [" + violation.invariant +
                         "]: " + violation.detail),
      violation_(std::move(violation)) {}

Auditor::Auditor(AuditorConfig config) : config_(config) {
  NU_EXPECTS(config_.cadence >= 1);
}

void Auditor::Report(std::string invariant, std::string detail,
                     std::size_t& found_this_pass) {
  ++found_this_pass;
  AuditViolation violation{std::move(invariant), std::move(detail),
                           context_.round, context_.topology_epoch};
  NU_LOG(kError) << "audit violation [" << violation.invariant << "] round "
                 << violation.round << " epoch " << violation.topology_epoch
                 << ": " << violation.detail;
  if (config_.mode == AuditMode::kFailFast) {
    throw AuditFailure(std::move(violation));
  }
  violations_.push_back(std::move(violation));
}

void Auditor::AuditPlacements(const net::Network& network, bool relaxed,
                              std::size_t& found) {
  const topo::Graph& graph = network.graph();
  const topo::PathRegistry& registry = network.path_registry();
  if (registry.serial() != memo_registry_ || &graph != memo_graph_) {
    memo_.clear();
    memo_links_.clear();
    memo_registry_ = registry.serial();
    memo_graph_ = &graph;
  }
  // Every placed ref was interned before it was stored, so it is below the
  // registry size read here.
  const std::size_t refs = registry.size();
  memo_.resize(refs);
  ref_demand_.assign(refs, 0.0);
  const bool check_alive = !relaxed && (network.down_link_count() > 0 ||
                                        network.down_node_count() > 0);
  if (check_alive) alive_.assign(refs, 0);

  // One linear walk over the flow store in memory order: per flow, read the
  // path's memoized facts and add the demand to its ref's sum. Only a flow
  // that fails the fast check resolves its path and re-runs the full
  // per-flow check; its findings are sorted into flow id order below.
  std::vector<Finding> coherence;
  network.flows().ForEachInSlotOrder([&](const flow::Flow& flow,
                                         PathRef ref) {
    const std::size_t r = ref.value();
    PathFacts& facts = memo_[r];
    if (facts.check == PathCheck::kUnchecked) {
      const topo::Path& path = registry.Get(ref);
      const bool clean =
          WellShaped(path) && Contiguous(graph, path) && LoopFree(path);
      facts.check = clean ? PathCheck::kClean : PathCheck::kMalformed;
      if (clean) {
        facts.source = path.source();
        facts.destination = path.destination();
      }
      facts.links_begin = static_cast<std::uint32_t>(memo_links_.size());
      facts.link_count = static_cast<std::uint32_t>(path.links.size());
      memo_links_.insert(memo_links_.end(), path.links.begin(),
                         path.links.end());
    }
    bool ok = facts.check == PathCheck::kClean && facts.source == flow.src &&
              facts.destination == flow.dst;
    if (ok && check_alive) {
      if (alive_[r] == 0) {
        alive_[r] = network.PathAlive(registry.Get(ref)) ? 1 : 2;
      }
      ok = alive_[r] == 1;
    }
    if (!ok) {
      CollectCoherenceFindings(graph, network, flow, registry.Get(ref),
                               /*allow_dead_paths=*/relaxed, coherence);
    }
    ref_demand_[r] += flow.demand;
  });
  // Stable: one flow's findings keep their emission order.
  std::stable_sort(coherence.begin(), coherence.end(),
                   [](const Finding& x, const Finding& y) {
                     return x.flow < y.flow;
                   });

  // Independent recompute: per-link load from the placements themselves,
  // never from the network's incremental residuals. Summing per ref first,
  // in slot order, reassociates each link's sum, which moves it by a few
  // ulps at most, far below kBandwidthEpsilon. The spread reads each ref's
  // links from the memo's own contiguous array.
  link_load_.assign(graph.link_count(), 0.0);
  for (std::size_t r = 0; r < refs; ++r) {
    const Mbps demand = ref_demand_[r];
    if (demand == 0.0) continue;
    const PathFacts& facts = memo_[r];
    const LinkId* links = memo_links_.data() + facts.links_begin;
    for (std::uint32_t i = 0; i < facts.link_count; ++i) {
      link_load_[links[i].value()] += demand;
    }
  }
  // The three capacity invariants per link, in ascending link order (the
  // canonical finding order), reading the flat residual row in place; the
  // collector builds text only for a check that fails.
  const Mbps* residual = network.ResidualData();
  const std::span<const topo::Link> links = graph.links();
  std::vector<Finding> capacity;
  for (std::size_t i = 0; i < links.size(); ++i) {
    CollectCapacityFindings(i, links[i].capacity, link_load_[i], residual[i],
                            /*allow_overcommit=*/relaxed, capacity);
  }
  for (Finding& f : capacity) Report(f.invariant, std::move(f.detail), found);
  for (Finding& f : coherence) Report(f.invariant, std::move(f.detail), found);
}

void Auditor::AuditAccounting(const QueueAccounting& accounting,
                              std::size_t& found) {
  const std::size_t placed = accounting.queued + accounting.active +
                             accounting.parked + accounting.completed +
                             accounting.shed + accounting.quarantined;
  if (placed != accounting.arrived) {
    std::ostringstream os;
    os << "event conservation: arrived " << accounting.arrived
       << " != queued " << accounting.queued << " + active "
       << accounting.active << " + parked " << accounting.parked
       << " + completed " << accounting.completed << " + shed "
       << accounting.shed << " + quarantined " << accounting.quarantined;
    Report("accounting", os.str(), found);
  }
  if (accounting.queue_capacity > 0 &&
      accounting.queued > accounting.queue_capacity) {
    std::ostringstream os;
    os << "bounded queue holds " << accounting.queued << " > capacity "
       << accounting.queue_capacity;
    Report("accounting", os.str(), found);
  }
}

std::size_t Auditor::Audit(const net::Network& network,
                           const QueueAccounting& accounting,
                           std::size_t forced_placements,
                           const AuditContext& context,
                           const DriftAuditInput* drift) {
  ++audits_run_;
  context_ = context;
  std::size_t found = 0;
  AuditPlacements(network, /*relaxed=*/forced_placements > 0, found);
  AuditAccounting(accounting, found);
  if (drift != nullptr) AuditDrift(*drift, found);
  return found;
}

void Auditor::AuditDrift(const DriftAuditInput& drift, std::size_t& found) {
  if (drift.max_passes == 0) return;
  for (const DriftAuditInput::Entry& entry : drift.entries) {
    if (entry.passes <= drift.max_passes) continue;
    std::ostringstream os;
    os << "switch " << entry.node.value() << " at drift for " << entry.passes
       << " consecutive reconcile passes (bound " << drift.max_passes
       << ") without quarantine";
    Report("drift", os.str(), found);
  }
}

}  // namespace nu::guard
