// Migration-set optimization (Section IV-A): given a new flow whose desired
// path is congested, pick a subset of the existing flows on the congested
// links to migrate elsewhere so the new flow fits, minimizing the migrated
// traffic. The exact problem is NP-complete (min-cost subset cover per
// congested link, with reroute feasibility constraints); the paper uses an
// approximation, which kBestFitDecreasing / kLocalSearch implement. An exact
// branch-and-bound (kExactSmall) is provided as a test oracle and for the
// strategy ablation bench.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "net/network.h"
#include "net/overlay.h"
#include "topo/path_provider.h"

namespace nu::update {

enum class MigrationStrategy : std::uint8_t {
  /// Migrate the largest reroutable flows first until the deficit is covered.
  kGreedyLargestFirst,
  /// If a single reroutable flow covers the deficit, migrate the smallest
  /// such flow; otherwise largest-first with a drop-redundant pass.
  kBestFitDecreasing,
  /// kBestFitDecreasing seeded, then pairwise replace/drop local search.
  kLocalSearch,
  /// Exact branch-and-bound when the candidate set is small (<= 22 flows),
  /// falling back to kLocalSearch above that.
  kExactSmall,
};

[[nodiscard]] const char* ToString(MigrationStrategy strategy);

/// One flow relocation of a migration plan.
struct MigrationMove {
  FlowId flow;
  /// Interned target path; resolve against the planning view's
  /// path_registry() (shared by the view, its overlays, and its copies).
  PathRef new_path;
  /// Demand of the migrated flow (Mbps) — the unit of the paper's Cost(U).
  Mbps traffic = 0.0;
};

struct MigrationPlan {
  /// True when the desired path can carry the new demand after `moves`.
  bool feasible = false;
  std::vector<MigrationMove> moves;
  /// Sum of move traffic — sum(F_a) of Definition 2.
  Mbps migrated_traffic = 0.0;
};

struct MigrationOptions {
  MigrationStrategy strategy = MigrationStrategy::kBestFitDecreasing;
  /// Candidate-set size above which kExactSmall falls back to local search.
  std::size_t exact_limit = 22;
  /// Cap on local-search improvement rounds.
  std::size_t local_search_rounds = 16;
};

class MigrationOptimizer {
 public:
  MigrationOptimizer(const topo::PathProvider& paths,
                     MigrationOptions options = {});

  /// Plans the migration set enabling (demand, desired_path) on `network`.
  /// Pure: operates on a copy-on-write overlay, so the cost is proportional
  /// to the state the plan touches, not to network size. `moves` are ordered
  /// so that applying them front-to-back keeps every intermediate state
  /// congestion-free (constraint (5) of the paper).
  [[nodiscard]] MigrationPlan Plan(const net::NetworkView& network, Mbps demand,
                                   const topo::Path& desired_path) const;

  /// Legacy baseline of Plan: identical algorithm over a full deep copy of
  /// `network`. Kept for the probe fast-path differential tests and the
  /// bench_probe_scaling speedup measurement.
  [[nodiscard]] MigrationPlan PlanDeepCopy(const net::Network& network,
                                           Mbps demand,
                                           const topo::Path& desired_path) const;

  /// Applies a plan's reroutes to the live network. The caller then places
  /// the new flow. Aborts if any move became infeasible (the plan must have
  /// been computed against the current state).
  static void Apply(net::MutableNetwork& network, const MigrationPlan& plan);

  [[nodiscard]] const MigrationOptions& options() const { return options_; }

 private:
  /// Shared mutation core: runs the cover-and-reroute passes directly on
  /// `scratch` (an overlay for the fast path, a deep copy for the baseline).
  [[nodiscard]] MigrationPlan PlanOn(net::MutableNetwork& scratch, Mbps demand,
                                     const topo::Path& desired_path) const;

  const topo::PathProvider& paths_;
  MigrationOptions options_;
};

/// A reroute target for an existing flow: a candidate path, different from
/// the flow's current one, avoiding every link set in `forbidden_mask`,
/// feasible once the flow's own occupancy is released
/// (net::SelfReleaseResidual). Returns the widest such path as a
/// provider-owned pointer, or nullptr when there is none. The mask is
/// indexed by LinkId value (empty = nothing forbidden); PlanOn builds it
/// once per plan. Residuals are read from the view's flat row.
[[nodiscard]] const topo::Path* FindRerouteTargetPtr(
    const net::NetworkView& network, const topo::PathProvider& paths,
    FlowId flow, std::span<const char> forbidden_mask);

/// Min-sum subset cover: choose indices of `weights` with total >= deficit
/// minimizing the chosen sum. Strategies as above (exact uses
/// branch-and-bound). Returns nullopt when even the full set cannot cover.
/// Exposed for unit tests and the ablation bench.
[[nodiscard]] std::optional<std::vector<std::size_t>> SelectCoverSet(
    const std::vector<double>& weights, double deficit,
    MigrationStrategy strategy, const MigrationOptions& options = {});

}  // namespace nu::update
