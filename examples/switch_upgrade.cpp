// Switch-upgrade scenario: drain a core switch for maintenance, two ways.
//
//   A. Congestion-free in-place drain (update::PlanNodeDrain): order the
//      reroutes of every flow crossing the switch so that no intermediate
//      state overloads a link — the flows never stop transmitting.
//   B. Event-level replacement (the update-event abstraction): model the
//      upgrade as an UpdateEvent whose flows replace the affected ones,
//      planned by the EventPlanner with migration.
//
// Both leave the switch carrying zero flows; A is the production drain
// path, B demonstrates how upgrades feed the paper's event queue.
//
// Run:  ./switch_upgrade
#include <cstdio>

#include "guard/auditor.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "trace/background.h"
#include "trace/yahoo_like.h"
#include "update/event_generator.h"
#include "update/planner.h"
#include "update/transition.h"

using namespace nu;

namespace {

/// Builds the loaded network; returns the busiest core switch.
NodeId BusiestCore(const topo::FatTree& ft, const net::Network& network) {
  NodeId busiest = ft.core(0);
  std::size_t busiest_count = 0;
  for (std::size_t c = 0; c < ft.core_count(); ++c) {
    const std::size_t count =
        update::FlowsThroughNode(network, ft.core(c)).size();
    if (count > busiest_count) {
      busiest_count = count;
      busiest = ft.core(c);
    }
  }
  return busiest;
}

}  // namespace

int main() {
  topo::FatTree ft(topo::FatTreeConfig{.k = 8, .link_capacity = 1000.0});
  topo::FatTreePathProvider provider(ft);
  net::Network network(ft.graph());

  trace::YahooLikeGenerator gen(ft.hosts(), Rng(7));
  trace::BackgroundOptions options;
  options.target_utilization = 0.5;
  options.random_path_seed = 7;  // hash placement loads cores unevenly
  const auto background =
      trace::InjectBackground(network, provider, gen, options);
  std::printf("background: %zu flows, %.1f%% utilization\n",
              background.placed_flows,
              background.achieved_utilization * 100.0);

  const NodeId busiest = BusiestCore(ft, network);
  const std::size_t affected =
      update::FlowsThroughNode(network, busiest).size();
  std::printf("upgrading %s: %zu flows must move\n\n",
              ft.graph().node(busiest).name.c_str(), affected);

  // --- A: congestion-free in-place drain ---
  {
    net::Network drained = network;
    const update::TransitionPlan plan =
        update::PlanNodeDrain(drained, provider, busiest);
    std::printf("[A] drain plan: %zu reroute steps (%zu detours), "
                "complete=%s, stuck=%zu\n",
                plan.steps.size(), plan.DetourCount(),
                plan.complete ? "yes" : "no", plan.stuck.size());
    update::ApplyTransition(drained, plan);
    std::printf("[A] flows still crossing after drain: %zu; network "
                "consistent: %s\n\n",
                update::FlowsThroughNode(drained, busiest).size(),
                guard::Auditor().Audit(drained, {}) == 0 ? "yes" : "NO");
  }

  // --- B: the event-level view (feeds the paper's update queue) ---
  {
    net::Network replaced = network;
    const auto affected_ids = update::FlowsThroughNode(replaced, busiest);
    const update::UpdateEvent event =
        update::MakeSwitchUpgradeEvent(EventId{1}, 0.0, replaced, busiest);
    update::RemoveFlows(replaced, affected_ids);
    const topo::NodeAvoidingPathProvider avoiding(provider, busiest);
    const update::EventPlanner planner(avoiding);
    const update::ExecutionResult result = planner.Execute(replaced, event);
    std::printf("[B] upgrade event: %zu flows, Cost(U) = %.1f Mbps over %zu "
                "moves, %zu deferred\n",
                event.flow_count(), result.plan.migrated_traffic,
                result.plan.migration_moves, result.deferred_flows.size());
    std::printf("[B] flows still crossing: %zu; network consistent: %s\n",
                update::FlowsThroughNode(replaced, busiest).size(),
                guard::Auditor().Audit(replaced, {}) == 0 ? "yes" : "NO");
  }
  return 0;
}
