// EventPlanner: turns an UpdateEvent into a concrete update plan against a
// network state — per flow, either a direct placement on a feasible path or
// a desired path plus the migration set that frees it (Section IV-A). The
// plan's total migrated traffic is the event's cost Cost(U) (Definition 2),
// the quantity LMTF/P-LMTF compare.
//
// Plan() is a pure what-if probe (used by LMTF cost sampling) running on a
// copy-on-write overlay. Execute() commits against the live network;
// ExecuteWithPlan() replays a previously computed plan without
// re-planning.
#pragma once

#include <vector>

#include "net/admission.h"
#include "net/overlay.h"
#include "update/migration.h"
#include "update/update_event.h"

namespace nu::update {

/// Planned handling of one flow of the event.
struct FlowAction {
  /// Index of the flow within the event.
  std::size_t flow_index = 0;
  /// Chosen path (desired path when migration is involved), interned in the
  /// planning view's path_registry().
  PathRef path;
  /// Migrations freeing the path; empty moves for a direct placement.
  MigrationPlan migration;
  /// False when the flow fits on no path even with migration — it must wait
  /// for capacity (the simulator retries it on future departures).
  bool placeable = false;
};

struct EventPlan {
  EventId event = EventId::invalid();
  /// True when every flow of the event is placeable now.
  bool fully_feasible = false;
  /// Cost(U): total migrated traffic across all flow actions (Mbps).
  Mbps migrated_traffic = 0.0;
  /// Number of individual flow reroutes.
  std::size_t migration_moves = 0;
  /// Flows that required migration.
  std::size_t flows_needing_migration = 0;
  std::vector<FlowAction> actions;

  [[nodiscard]] std::size_t placeable_count() const;
};

/// Result of committing an event to the live network.
struct ExecutionResult {
  EventPlan plan;
  /// Ids of the event flows placed, parallel to the placeable actions.
  std::vector<FlowId> placed_flows;
  /// Indices (into event.flows()) of flows that could not be placed and
  /// were deferred.
  std::vector<std::size_t> deferred_flows;
};

class EventPlanner {
 public:
  explicit EventPlanner(const topo::PathProvider& paths,
                        MigrationOptions migration_options = {},
                        net::PathSelection path_selection =
                            net::PathSelection::kWidest);

  /// Cost probe: plans the whole event against a copy-on-write overlay of
  /// `network` (flows of the event occupy capacity as they are planned, so
  /// intra-event contention is counted). Does not mutate `network`; probe
  /// cost scales with the state the event touches, not with network size.
  [[nodiscard]] EventPlan Plan(const net::NetworkView& network,
                               const UpdateEvent& event) const;

  /// Plans and commits against the live network: applies migrations and
  /// places every placeable flow. Unplaceable flows are reported as deferred.
  ExecutionResult Execute(net::MutableNetwork& network,
                          const UpdateEvent& event) const;

  /// Replays a plan computed by Plan() against `network` without
  /// re-planning: applies each placeable action's migrations and placement
  /// in plan order. Because network state is identical to what the plan was
  /// computed against (same state epoch) and the planner is deterministic,
  /// this commits exactly what Execute() would have committed.
  ExecutionResult ExecuteWithPlan(net::MutableNetwork& network,
                                  const UpdateEvent& event,
                                  EventPlan plan) const;

  /// Plans and places a single flow (used by the flow-level baseline and by
  /// deferred-flow retries). Returns the placed id, or nullopt when the flow
  /// fits nowhere even with migration; `migrated` accumulates move traffic.
  std::optional<FlowId> PlaceFlow(net::MutableNetwork& network,
                                  flow::Flow flow, Mbps* migrated = nullptr,
                                  std::size_t* moves = nullptr) const;

  [[nodiscard]] const topo::PathProvider& paths() const { return paths_; }
  [[nodiscard]] const MigrationOptions& migration_options() const {
    return optimizer_.options();
  }

 private:
  /// Shared implementation: plans against `state`, mutating it.
  EventPlan PlanInto(net::MutableNetwork& state, const UpdateEvent& event,
                     std::vector<FlowId>* placed_ids) const;

  const topo::PathProvider& paths_;
  MigrationOptimizer optimizer_;
  net::PathSelection path_selection_;
};

}  // namespace nu::update
