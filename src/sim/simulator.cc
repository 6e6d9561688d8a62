#include "sim/simulator.h"

#include <algorithm>

#include "guard/auditor.h"
#include "metrics/collector.h"
#include "net/admission.h"
#include "sim/subsystems.h"

namespace nu::sim {
namespace {

/// Flow-level dispatch state of one event, in arrival order.
struct EvState {
  const update::UpdateEvent* event = nullptr;
  std::size_t dispatched = 0;
  Seconds last_install_end = 0.0;
  bool started = false;
  std::size_t retry_failures = 0;
};

struct FlowEnd {
  FlowId flow;
  bool background = false;
};

/// Event conservation of the flow-level baseline: each arrived event is
/// queued (no flow dispatched), active or completed; the baseline never
/// parks, sheds or quarantines.
guard::QueueAccounting Accounting(std::span<const EvState> arrived) {
  guard::QueueAccounting acct;
  acct.arrived = arrived.size();
  for (const EvState& state : arrived) {
    if (state.dispatched == 0) {
      ++acct.queued;
    } else if (state.dispatched < state.event->flow_count()) {
      ++acct.active;
    } else {
      ++acct.completed;
    }
  }
  return acct;
}

}  // namespace

// Run and Resume are defined in event_loop.cc, next to the EventLoop they
// drive.
Simulator::Simulator(const net::Network& initial,
                     const topo::PathProvider& paths, SimConfig config)
    : initial_(initial), paths_(paths), config_(config) {}

SimResult Simulator::RunFlowLevel(
    std::span<const update::UpdateEvent> events) {
  net::Network network = initial_;
  const update::EventPlanner planner(paths_, config_.migration_options,
                                     config_.path_selection);
  const CostModel& costs = config_.cost_model;
  metrics::Collector collector;
  SimResult result;

  const auto pending = SortedByArrival(events);
  std::size_t next_arrival = 0;

  std::vector<EvState> arrived;
  TimelineQueue<FlowEnd> departures;
  Seconds now = 0.0;
  Seconds total_plan_time = 0.0;
  std::size_t cursor = 0;  // round-robin over arrived events

  // Background churn (see ChurnProcess for the model).
  ChurnProcess churn(config_, churn_factory_, network.graph());
  churn.Start(network, [&departures](Seconds t, FlowId fid) {
    departures.Push(t, FlowEnd{fid, true});
  });

  auto ingest_arrivals = [&] {
    while (next_arrival < pending.size() &&
           pending[next_arrival]->arrival_time() <= now + kTimeEpsilon) {
      const update::UpdateEvent* e = pending[next_arrival];
      arrived.push_back(EvState{e});
      collector.OnArrival(e->id(), e->arrival_time(), e->flow_count());
      ++next_arrival;
    }
  };

  // Next event with an undispatched flow under round-robin interleaving, or
  // nullptr when everything arrived so far is fully dispatched.
  auto next_item = [&]() -> EvState* {
    for (std::size_t step = 0; step < arrived.size(); ++step) {
      EvState& state = arrived[(cursor + step) % arrived.size()];
      if (state.dispatched < state.event->flow_count()) {
        cursor = (cursor + step) % arrived.size();
        return &state;
      }
    }
    return nullptr;
  };

  // Runtime audits (SimConfig::guard.auditor): a pass after every
  // `cadence`-th occurrence (a departure or a dispatched flow) and a final
  // pass, relaxed while forced placements exist.
  guard::Auditor auditor(config_.guard.auditor);
  std::size_t since_audit = 0;
  auto audit = [&](bool final_pass) {
    if (!auditor.config().enabled ||
        (!final_pass && ++since_audit < auditor.config().cadence)) {
      return;
    }
    since_audit = 0;
    collector.OnAudit(auditor.Audit(
        network, Accounting(arrived), result.forced_placements,
        guard::AuditContext{0, network.topology_epoch()}));
  };

  auto process_departures_until = [&](Seconds t) {
    while (!departures.empty() && departures.NextTime() <= t + kTimeEpsilon) {
      const FlowEnd end = departures.Pop().payload;
      network.Remove(end.flow);
      const std::optional<FlowId> placed =
          end.background ? churn.SpawnReplacement(network, paths_)
                         : std::nullopt;
      if (placed) {
        departures.Push(now + network.FlowOf(*placed).duration,
                        FlowEnd{*placed, true});
      }
      audit(/*final_pass=*/false);
    }
  };

  // Installs one flow of `state` at the current time. Migration and rule
  // installation occupy the update pipeline serially (advancing `now`), so
  // one flow's update finishes before the next is dispatched. Records
  // completion when it was the event's last flow.
  auto install = [&](EvState& state, FlowId placed, Mbps migrated) {
    if (!state.started) {
      state.started = true;
      collector.OnExecutionStart(state.event->id(), now);
    }
    collector.OnCost(state.event->id(), migrated);
    now += costs.MigrationTime(migrated) + costs.InstallTime(1);
    state.last_install_end = std::max(state.last_install_end, now);
    departures.Push(now + network.FlowOf(placed).duration,
                    FlowEnd{placed, false});
    ++state.dispatched;
    if (state.dispatched == state.event->flow_count()) {
      collector.OnCompletion(state.event->id(), state.last_install_end);
    }
    cursor = (cursor + 1) % arrived.size();
    audit(/*final_pass=*/false);
  };

  std::size_t guard = 0;
  for (;;) {
    NU_CHECK(++guard < 100'000'000);
    ingest_arrivals();

    EvState* item = next_item();
    if (item == nullptr) {
      if (next_arrival >= pending.size()) break;  // all flows dispatched
      now = std::max(now, pending[next_arrival]->arrival_time());
      process_departures_until(now);
      continue;
    }

    // Dispatch one flow: planning this flow costs plan time. Migration and
    // installation then occupy the update pipeline serially (inside
    // `install`), exactly as they do within an event-level round — the
    // flow-level baseline differs only in its event-blind ordering.
    // Blocked retries use the cheap admission check; full migration planning
    // runs every kMigrationRetryPeriod-th failure (as in the event-level
    // retry path).
    const flow::Flow& f = item->event->flows()[item->dispatched];
    now += costs.plan_time_per_flow;
    total_plan_time += costs.plan_time_per_flow;
    process_departures_until(now);

    Mbps migrated = 0.0;
    std::optional<FlowId> placed;
    if (item->retry_failures == 0 ||
        item->retry_failures % kMigrationRetryPeriod == 0) {
      placed = planner.PlaceFlow(network, f, &migrated);
    } else if (const topo::Path* direct = net::FindFeasiblePathPtr(
                   network, paths_, f.src, f.dst, f.demand,
                   config_.path_selection)) {
      placed = network.Place(f, *direct);
    }
    if (placed.has_value()) {
      item->retry_failures = 0;
      install(*item, *placed, migrated);
      continue;
    }
    ++item->retry_failures;

    // Head-of-line blocking: the flow fits nowhere even with migration.
    // Wait for the next departure (or arrival) and retry the same flow.
    if (!departures.empty()) {
      now = std::max(now, departures.NextTime());
      process_departures_until(now);
      continue;
    }
    if (next_arrival < pending.size()) {
      now = std::max(now, pending[next_arrival]->arrival_time());
      continue;
    }
    // Nothing will ever free capacity: force-place (reported).
    const topo::Path& path =
        net::LeastCongestedPath(network, paths_, f.src, f.dst, f.demand);
    const FlowId forced = network.ForcePlace(f, path);
    ++result.forced_placements;
    install(*item, forced, 0.0);
  }

  audit(/*final_pass=*/true);
  NU_CHECK(collector.AllComplete());
  result.records = collector.records();
  result.guard_stats = collector.guard_stats();
  result.violations = auditor.violations();
  result.report = metrics::BuildReport(collector, total_plan_time,
                                       config_.tail_percentile);
  return result;
}

}  // namespace nu::sim
