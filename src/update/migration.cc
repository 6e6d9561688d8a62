#include "update/migration.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "common/logging.h"
#include "net/admission.h"

namespace nu::update {
namespace {

/// Weight/index pair ordered by descending weight (ascending index on ties)
/// for deterministic selection.
struct Item {
  double weight;
  std::size_t index;
};

std::vector<Item> SortedDescending(const std::vector<double>& weights) {
  std::vector<Item> items;
  items.reserve(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    items.push_back(Item{weights[i], i});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.index < b.index;
  });
  return items;
}

std::vector<std::size_t> LargestFirstCover(const std::vector<Item>& items,
                                           double deficit) {
  std::vector<std::size_t> chosen;
  double sum = 0.0;
  for (const Item& item : items) {
    if (sum >= deficit) break;
    chosen.push_back(item.index);
    sum += item.weight;
  }
  return chosen;
}

/// Removes members whose removal keeps the cover, preferring to drop small
/// members last (iterate ascending weight so big redundant members go first).
void DropRedundant(std::vector<std::size_t>& chosen,
                   const std::vector<double>& weights, double deficit) {
  double sum = 0.0;
  for (std::size_t i : chosen) sum += weights[i];
  // Try dropping in descending-weight order: removing a big flow saves the
  // most migrated traffic.
  std::vector<std::size_t> order = chosen;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return a < b;
  });
  for (std::size_t candidate : order) {
    if (sum - weights[candidate] >= deficit) {
      sum -= weights[candidate];
      chosen.erase(std::find(chosen.begin(), chosen.end(), candidate));
    }
  }
}

std::vector<std::size_t> BestFitDecreasingCover(
    const std::vector<double>& weights, const std::vector<Item>& items,
    double deficit) {
  // Smallest single flow that covers the deficit, if any.
  const Item* best_single = nullptr;
  for (const Item& item : items) {
    if (item.weight >= deficit) {
      best_single = &item;  // items are descending; keep updating -> smallest
    } else {
      break;  // no later item can cover alone
    }
  }
  if (best_single != nullptr) return {best_single->index};
  auto chosen = LargestFirstCover(items, deficit);
  DropRedundant(chosen, weights, deficit);
  return chosen;
}

double SumOf(const std::vector<std::size_t>& chosen,
             const std::vector<double>& weights) {
  double sum = 0.0;
  for (std::size_t i : chosen) sum += weights[i];
  return sum;
}

std::vector<std::size_t> LocalSearchCover(const std::vector<double>& weights,
                                          const std::vector<Item>& items,
                                          double deficit,
                                          std::size_t max_rounds) {
  std::vector<std::size_t> chosen =
      BestFitDecreasingCover(weights, items, deficit);
  std::vector<bool> in_set(weights.size(), false);
  for (std::size_t i : chosen) in_set[i] = true;
  double sum = SumOf(chosen, weights);

  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;
    // Drop pass.
    for (std::size_t pos = 0; pos < chosen.size();) {
      const std::size_t member = chosen[pos];
      if (sum - weights[member] >= deficit) {
        sum -= weights[member];
        in_set[member] = false;
        chosen.erase(chosen.begin() + static_cast<std::ptrdiff_t>(pos));
        improved = true;
      } else {
        ++pos;
      }
    }
    // Replace pass: swap a member for the smallest outsider that keeps cover.
    for (std::size_t pos = 0; pos < chosen.size(); ++pos) {
      const std::size_t member = chosen[pos];
      std::size_t best_sub = weights.size();
      double best_sub_weight = weights[member];
      for (std::size_t out = 0; out < weights.size(); ++out) {
        if (in_set[out]) continue;
        if (weights[out] >= best_sub_weight) continue;
        if (sum - weights[member] + weights[out] >= deficit) {
          best_sub = out;
          best_sub_weight = weights[out];
        }
      }
      if (best_sub < weights.size()) {
        sum += weights[best_sub] - weights[member];
        in_set[member] = false;
        in_set[best_sub] = true;
        chosen[pos] = best_sub;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return chosen;
}

/// Exact min-sum cover via branch-and-bound over descending weights.
class ExactCoverSolver {
 public:
  ExactCoverSolver(const std::vector<Item>& items, double deficit)
      : items_(items), deficit_(deficit) {
    suffix_sums_.resize(items.size() + 1, 0.0);
    for (std::size_t i = items.size(); i > 0; --i) {
      suffix_sums_[i - 1] = suffix_sums_[i] + items[i - 1].weight;
    }
  }

  std::vector<std::size_t> Solve(std::vector<std::size_t> initial,
                                 double initial_sum) {
    best_ = std::move(initial);
    best_sum_ = initial_sum;
    Recurse(0, 0.0);
    return best_;
  }

 private:
  void Recurse(std::size_t depth, double sum) {
    if (sum >= deficit_) {
      if (sum < best_sum_) {
        best_sum_ = sum;
        best_ = current_;
      }
      return;  // adding more only increases the sum
    }
    if (depth == items_.size()) return;
    // Prune: even taking every remaining item cannot reach the deficit.
    if (sum + suffix_sums_[depth] < deficit_) return;
    // Prune: current sum already no better than the best found.
    if (sum + 1e-12 >= best_sum_) return;

    // Include items_[depth].
    current_.push_back(items_[depth].index);
    Recurse(depth + 1, sum + items_[depth].weight);
    current_.pop_back();
    // Exclude.
    Recurse(depth + 1, sum);
  }

  const std::vector<Item>& items_;
  double deficit_;
  std::vector<double> suffix_sums_;
  std::vector<std::size_t> current_;
  std::vector<std::size_t> best_;
  double best_sum_ = std::numeric_limits<double>::infinity();
};

}  // namespace

const char* ToString(MigrationStrategy strategy) {
  switch (strategy) {
    case MigrationStrategy::kGreedyLargestFirst:
      return "greedy-largest-first";
    case MigrationStrategy::kBestFitDecreasing:
      return "best-fit-decreasing";
    case MigrationStrategy::kLocalSearch:
      return "local-search";
    case MigrationStrategy::kExactSmall:
      return "exact-small";
  }
  return "?";
}

std::optional<std::vector<std::size_t>> SelectCoverSet(
    const std::vector<double>& weights, double deficit,
    MigrationStrategy strategy, const MigrationOptions& options) {
  if (deficit <= 0.0) return std::vector<std::size_t>{};
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total < deficit) return std::nullopt;

  const auto items = SortedDescending(weights);
  switch (strategy) {
    case MigrationStrategy::kGreedyLargestFirst:
      return LargestFirstCover(items, deficit);
    case MigrationStrategy::kBestFitDecreasing:
      return BestFitDecreasingCover(weights, items, deficit);
    case MigrationStrategy::kLocalSearch:
      return LocalSearchCover(weights, items, deficit,
                              options.local_search_rounds);
    case MigrationStrategy::kExactSmall: {
      if (weights.size() > options.exact_limit) {
        return LocalSearchCover(weights, items, deficit,
                                options.local_search_rounds);
      }
      auto seed = LocalSearchCover(weights, items, deficit,
                                   options.local_search_rounds);
      const double seed_sum = SumOf(seed, weights);
      ExactCoverSolver solver(items, deficit);
      return solver.Solve(std::move(seed), seed_sum);
    }
  }
  return std::nullopt;
}

const topo::Path* FindRerouteTargetPtr(const net::NetworkView& network,
                                       const topo::PathProvider& paths,
                                       FlowId flow,
                                       std::span<const char> forbidden_mask) {
  const flow::Flow& f = network.FlowOf(flow);
  const topo::Path& current = network.PathOf(flow);
  const std::vector<topo::Path>& candidates = paths.Paths(f.src, f.dst);
  const Mbps* residuals = network.ResidualData();

  const topo::Path* best = nullptr;
  Mbps best_bottleneck = 0.0;
  for (const topo::Path& candidate : candidates) {
    if (candidate == current) continue;
    bool usable = true;
    Mbps bottleneck = std::numeric_limits<double>::infinity();
    for (LinkId lid : candidate.links) {
      if (!forbidden_mask.empty() && forbidden_mask[lid.value()] != 0) {
        usable = false;
        break;
      }
      const Mbps residual = net::SelfReleaseResidual(
          residuals[lid.value()], lid, current, f.demand);
      if (!ApproxGe(residual, f.demand)) {
        usable = false;
        break;
      }
      bottleneck = std::min(bottleneck, residual);
    }
    if (!usable) continue;
    if (best == nullptr || bottleneck > best_bottleneck) {
      best = &candidate;
      best_bottleneck = bottleneck;
    }
  }
  return best;
}

MigrationOptimizer::MigrationOptimizer(const topo::PathProvider& paths,
                                       MigrationOptions options)
    : paths_(paths), options_(options) {}

MigrationPlan MigrationOptimizer::Plan(const net::NetworkView& network,
                                       Mbps demand,
                                       const topo::Path& desired_path) const {
  net::NetworkOverlay scratch(network);
  return PlanOn(scratch, demand, desired_path);
}

MigrationPlan MigrationOptimizer::PlanDeepCopy(
    const net::Network& network, Mbps demand,
    const topo::Path& desired_path) const {
  net::Network scratch = network;
  return PlanOn(scratch, demand, desired_path);
}

MigrationPlan MigrationOptimizer::PlanOn(net::MutableNetwork& scratch,
                                         Mbps demand,
                                         const topo::Path& desired_path) const {
  NU_EXPECTS(demand > 0.0);
  MigrationPlan plan;

  if (scratch.CanPlace(demand, desired_path)) {
    plan.feasible = true;
    return plan;
  }

  // Reroute targets must stay off the desired path entirely: touching even a
  // currently-uncongested link of it could create a fresh deficit. Flat
  // byte mask — the reroute scan tests every candidate link against it.
  std::vector<char> forbidden(scratch.graph().link_count(), 0);
  for (LinkId lid : desired_path.links) forbidden[lid.value()] = 1;

  // A congested link's deficit can only shrink as flows leave it, but we
  // re-scan because selections are re-validated; bound the passes.
  constexpr std::size_t kMaxPasses = 4;
  for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
    const std::vector<LinkId> congested =
        scratch.CongestedLinks(demand, desired_path);
    if (congested.empty()) break;

    bool progressed = false;
    for (LinkId link : congested) {
      double deficit = demand - scratch.Residual(link);
      if (deficit <= kBandwidthEpsilon) continue;

      // Candidate set F_A: flows currently on the congested link that have
      // somewhere else to go. No mutation happens while the span is read.
      const std::span<const std::uint32_t> on_link = scratch.LinkFlowIds(link);
      std::vector<FlowId> movable;
      std::vector<double> weights;
      movable.reserve(on_link.size());
      for (const std::uint32_t rep : on_link) {
        const FlowId fid{rep};
        if (FindRerouteTargetPtr(scratch, paths_, fid, forbidden) != nullptr) {
          movable.push_back(fid);
          weights.push_back(scratch.FlowOf(fid).demand);
        }
      }

      const auto selection =
          SelectCoverSet(weights, deficit, options_.strategy, options_);
      if (!selection.has_value()) {
        plan.feasible = false;
        return plan;
      }

      for (std::size_t idx : *selection) {
        if (deficit <= kBandwidthEpsilon) break;
        const FlowId fid = movable[idx];
        // Re-resolve the target against the *current* scratch state: earlier
        // moves in this selection may have consumed the original target.
        const topo::Path* target =
            FindRerouteTargetPtr(scratch, paths_, fid, forbidden);
        if (target == nullptr) continue;
        const Mbps moved = scratch.FlowOf(fid).demand;
        scratch.Reroute(fid, *target);
        plan.moves.push_back(
            MigrationMove{fid, scratch.PathRefOf(fid), moved});
        plan.migrated_traffic += moved;
        deficit = demand - scratch.Residual(link);
        progressed = true;
      }
      if (deficit > kBandwidthEpsilon) {
        // Selection went stale and could not be completed this pass; the
        // outer loop re-scans. Without progress we are stuck.
        if (!progressed) {
          plan.feasible = false;
          return plan;
        }
      }
    }
    if (!progressed) break;
  }

  plan.feasible = scratch.CanPlace(demand, desired_path);
  return plan;
}

void MigrationOptimizer::Apply(net::MutableNetwork& network,
                               const MigrationPlan& plan) {
  NU_EXPECTS(plan.feasible);
  for (const MigrationMove& move : plan.moves) {
    network.Reroute(move.flow, move.new_path);
  }
}

}  // namespace nu::update
