#include "update/planner.h"

#include "common/check.h"

namespace nu::update {

std::size_t EventPlan::placeable_count() const {
  std::size_t count = 0;
  for (const FlowAction& a : actions) {
    if (a.placeable) ++count;
  }
  return count;
}

EventPlanner::EventPlanner(const topo::PathProvider& paths,
                           MigrationOptions migration_options,
                           net::PathSelection path_selection)
    : paths_(paths),
      optimizer_(paths, migration_options),
      path_selection_(path_selection) {}

EventPlan EventPlanner::PlanInto(net::MutableNetwork& state,
                                 const UpdateEvent& event,
                                 std::vector<FlowId>* placed_ids,
                                 bool legacy_migration) const {
  EventPlan plan;
  plan.event = event.id();
  plan.actions.reserve(event.flow_count());
  bool all_placeable = true;

  for (std::size_t i = 0; i < event.flow_count(); ++i) {
    const flow::Flow& f = event.flows()[i];
    FlowAction action;
    action.flow_index = i;

    // 1. Direct admission on a feasible path, if one exists.
    if (const topo::Path* direct = net::FindFeasiblePathPtr(
            state, paths_, f.src, f.dst, f.demand, path_selection_)) {
      action.path = state.path_registry().Intern(*direct);
      action.migration.feasible = true;
      action.placeable = true;
    } else if (paths_.Paths(f.src, f.dst).empty()) {
      // No candidate paths at all (every path dead under fault injection):
      // the flow must wait for the topology to heal.
      action.placeable = false;
      all_placeable = false;
    } else {
      // 2. Locally migrate existing flows off the least congested candidate
      //    path (Definition 1).
      const topo::Path& desired =
          net::LeastCongestedPath(state, paths_, f.src, f.dst, f.demand);
      MigrationPlan migration;
      if (legacy_migration) {
        const auto* concrete = dynamic_cast<const net::Network*>(&state);
        NU_CHECK(concrete != nullptr);
        migration = optimizer_.PlanDeepCopy(*concrete, f.demand, desired);
      } else {
        migration = optimizer_.Plan(state, f.demand, desired);
      }
      if (migration.feasible) {
        action.path = state.path_registry().Intern(desired);
        action.migration = std::move(migration);
        action.placeable = true;
        ++plan.flows_needing_migration;
        plan.migrated_traffic += action.migration.migrated_traffic;
        plan.migration_moves += action.migration.moves.size();
      } else {
        action.placeable = false;
        all_placeable = false;
      }
    }

    if (action.placeable) {
      MigrationOptimizer::Apply(state, action.migration);
      const FlowId id = state.Place(f, action.path);
      if (placed_ids != nullptr) placed_ids->push_back(id);
    }
    plan.actions.push_back(std::move(action));
  }

  plan.fully_feasible = all_placeable;
  return plan;
}

EventPlan EventPlanner::Plan(const net::NetworkView& network,
                             const UpdateEvent& event) const {
  net::NetworkOverlay scratch(network);
  return PlanInto(scratch, event, nullptr);
}

EventPlan EventPlanner::PlanLegacyCopy(const net::Network& network,
                                       const UpdateEvent& event) const {
  net::Network scratch = network;
  return PlanInto(scratch, event, nullptr, /*legacy_migration=*/true);
}

ExecutionResult EventPlanner::Execute(net::MutableNetwork& network,
                                      const UpdateEvent& event,
                                      bool legacy_migration) const {
  ExecutionResult result;
  result.plan =
      PlanInto(network, event, &result.placed_flows, legacy_migration);
  for (const FlowAction& action : result.plan.actions) {
    if (!action.placeable) result.deferred_flows.push_back(action.flow_index);
  }
  return result;
}

ExecutionResult EventPlanner::ExecuteWithPlan(net::MutableNetwork& network,
                                              const UpdateEvent& event,
                                              EventPlan plan) const {
  ExecutionResult result;
  for (const FlowAction& action : plan.actions) {
    if (!action.placeable) {
      result.deferred_flows.push_back(action.flow_index);
      continue;
    }
    // Place() and Reroute() re-validate feasibility, so a stale plan (state
    // mutated since it was computed) aborts loudly instead of corrupting
    // residuals.
    MigrationOptimizer::Apply(network, action.migration);
    const FlowId id =
        network.Place(event.flows()[action.flow_index], action.path);
    result.placed_flows.push_back(id);
  }
  result.plan = std::move(plan);
  return result;
}

std::optional<FlowId> EventPlanner::PlaceFlow(net::MutableNetwork& network,
                                              flow::Flow flow, Mbps* migrated,
                                              std::size_t* moves) const {
  if (const topo::Path* direct = net::FindFeasiblePathPtr(
          network, paths_, flow.src, flow.dst, flow.demand, path_selection_)) {
    return network.Place(std::move(flow), *direct);
  }
  if (paths_.Paths(flow.src, flow.dst).empty()) return std::nullopt;
  const topo::Path& desired = net::LeastCongestedPath(
      network, paths_, flow.src, flow.dst, flow.demand);
  MigrationPlan migration = optimizer_.Plan(network, flow.demand, desired);
  if (!migration.feasible) return std::nullopt;
  if (migrated != nullptr) *migrated += migration.migrated_traffic;
  if (moves != nullptr) *moves += migration.moves.size();
  MigrationOptimizer::Apply(network, migration);
  return network.Place(std::move(flow), desired);
}

}  // namespace nu::update
