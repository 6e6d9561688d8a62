// Differential tests for the probe path (docs/model.md §9): the epoch-keyed
// probe cache and sharded candidate probing must be behaviorally invisible —
// identical decisions, records, ECT/fairness metrics, and guard audit counts
// to the uncached, unsharded run; only wall-clock and the probe counters
// differ. The overlay planner itself is checked against planning on a deep
// network copy.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "exp/runner.h"
#include "metrics/export.h"
#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "trace/background.h"
#include "trace/yahoo_like.h"
#include "update/planner.h"

namespace nu::sim {
namespace {

struct Fixture {
  explicit Fixture(double utilization = 0.5)
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        network(ft.graph()) {
    if (utilization > 0.0) {
      trace::YahooLikeGenerator gen(ft.hosts(), Rng(99));
      trace::BackgroundOptions options;
      options.target_utilization = utilization;
      trace::InjectBackground(network, provider, gen, options);
    }
    // A queue with contention: staggered arrivals, mixed sizes, so LMTF /
    // P-LMTF actually probe, defer, and co-schedule.
    Rng rng(21);
    std::uint64_t id = 0;
    for (int e = 0; e < 10; ++e) {
      std::vector<flow::Flow> flows;
      const std::size_t n = 1 + rng.Index(3);
      for (std::size_t i = 0; i < n; ++i) {
        flow::Flow f;
        f.src = ft.host(rng.Index(ft.host_count()));
        do {
          f.dst = ft.host(rng.Index(ft.host_count()));
        } while (f.dst == f.src);
        f.demand = 5.0 + rng.Uniform(0.0, 20.0);
        f.duration = 0.5 + rng.Uniform(0.0, 2.0);
        flows.push_back(f);
      }
      events.push_back(update::UpdateEvent(
          EventId{id}, 0.1 * static_cast<double>(id), std::move(flows)));
      ++id;
    }
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
  std::vector<update::UpdateEvent> events;
};

SimConfig BaseConfig() {
  SimConfig config;
  config.cost_model.plan_time_per_flow = 0.001;
  config.cost_model.migration_rate = 10000.0;
  config.cost_model.install_time_per_flow = 0.05;
  config.seed = 7;
  return config;
}

SimResult RunWith(const Fixture& fx, SimConfig config,
                  sched::SchedulerKind kind) {
  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler =
      sched::MakeScheduler(kind, sched::LmtfConfig{.alpha = 3});
  return sim.Run(*scheduler, fx.events);
}

std::string RecordsCsv(const SimResult& result) {
  std::ostringstream os;
  metrics::WriteRecordsCsv(os, result.records);
  return os.str();
}

/// Everything an operator can observe except the probe-implementation
/// counters must be identical.
void ExpectBehaviorIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(RecordsCsv(a), RecordsCsv(b));
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.cost_probes, b.cost_probes);
  EXPECT_EQ(a.cofeasibility_probes, b.cofeasibility_probes);
  EXPECT_EQ(a.forced_placements, b.forced_placements);
  EXPECT_EQ(a.report.event_count, b.report.event_count);
  EXPECT_EQ(a.report.avg_ect, b.report.avg_ect);
  EXPECT_EQ(a.report.tail_ect, b.report.tail_ect);
  EXPECT_EQ(a.report.avg_queuing_delay, b.report.avg_queuing_delay);
  EXPECT_EQ(a.report.worst_queuing_delay, b.report.worst_queuing_delay);
  EXPECT_EQ(a.report.total_cost, b.report.total_cost);
  EXPECT_EQ(a.report.total_plan_time, b.report.total_plan_time);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.total_deferred_flows, b.report.total_deferred_flows);
}

TEST(ProbeFastPathTest, CacheMatchesUncachedAllSchedulers) {
  const Fixture fx;
  for (const sched::SchedulerKind kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kLmtf,
        sched::SchedulerKind::kPlmtf}) {
    SimConfig uncached = BaseConfig();
    uncached.probe_cost_cache = false;
    SimConfig cached = BaseConfig();
    cached.probe_cost_cache = true;
    const SimResult a = RunWith(fx, uncached, kind);
    const SimResult b = RunWith(fx, cached, kind);
    SCOPED_TRACE(sched::ToString(kind));
    ExpectBehaviorIdentical(a, b);
    if (kind != sched::SchedulerKind::kFifo) {
      // The probed winner's plan is replayed at execution time.
      EXPECT_GT(b.probe_stats.exec_plan_reuses, 0u);
      EXPECT_GT(b.probe_stats.probe_cache_misses, 0u);
    }
  }
}

TEST(ProbeFastPathTest, QuickProbesMatchLegacyAndCache) {
  const Fixture fx;
  SimConfig uncached = BaseConfig();
  uncached.quick_cost_probes = true;
  uncached.probe_cost_cache = false;
  SimConfig fast = BaseConfig();
  fast.quick_cost_probes = true;
  const SimResult a = RunWith(fx, uncached, sched::SchedulerKind::kLmtf);
  const SimResult b = RunWith(fx, fast, sched::SchedulerKind::kLmtf);
  ExpectBehaviorIdentical(a, b);
  // Quick probes cache scores but never plans; the winner is re-planned at
  // execution, so no plan replay may happen.
  EXPECT_EQ(b.probe_stats.exec_plan_reuses, 0u);
}

TEST(ProbeFastPathTest, GuardAndFaultRunsStayIdentical) {
  const Fixture fx;
  auto guarded = [](bool cache) {
    SimConfig config = BaseConfig();
    config.probe_cost_cache = cache;
    config.faults.flaky.failure_probability = 0.2;
    config.faults.retry.max_attempts = 3;
    config.guard.overload.max_queue_length = 6;
    config.guard.deadline.base_deadline = 5.0;
    config.guard.deadline.max_failures = 3;
    config.guard.auditor.enabled = true;
    config.guard.auditor.cadence = 2;
    config.guard.auditor.mode = guard::AuditMode::kFailFast;
    return config;
  };
  for (const sched::SchedulerKind kind :
       {sched::SchedulerKind::kLmtf, sched::SchedulerKind::kPlmtf}) {
    const SimResult a = RunWith(fx, guarded(false), kind);
    const SimResult b = RunWith(fx, guarded(true), kind);
    SCOPED_TRACE(sched::ToString(kind));
    ExpectBehaviorIdentical(a, b);
    EXPECT_EQ(a.guard_stats.audits_run, b.guard_stats.audits_run);
    EXPECT_EQ(a.guard_stats.audit_violations, b.guard_stats.audit_violations);
    EXPECT_EQ(a.guard_stats.events_shed, b.guard_stats.events_shed);
    EXPECT_EQ(a.guard_stats.deadline_misses, b.guard_stats.deadline_misses);
    EXPECT_EQ(a.fault_stats.installs_attempted, b.fault_stats.installs_attempted);
    EXPECT_EQ(a.fault_stats.installs_failed, b.fault_stats.installs_failed);
    EXPECT_EQ(a.fault_stats.events_aborted, b.fault_stats.events_aborted);
  }
}

TEST(ProbeFastPathTest, Fig6WorkloadHasZeroDriftAcrossAllModes) {
  // The acceptance workload: the Fig. 6 experiment pipeline (exp::Workload,
  // scaled down for test time). Uncached, cached, and sharded runs must
  // produce identical records and ECT metrics for every scheduler.
  exp::ExperimentConfig config;
  config.fat_tree_k = 4;
  config.utilization = 0.7;
  config.event_count = 12;
  config.min_flows_per_event = 3;
  config.max_flows_per_event = 12;
  config.alpha = 3;
  config.seed = 606;
  const exp::Workload workload(config);

  auto run = [&](sched::SchedulerKind kind, bool cache, std::size_t shards) {
    exp::ExperimentConfig c = config;
    c.sim.probe_cost_cache = cache;
    c.sim.shards = shards;
    c.sim.shard_threads = 2;
    Simulator sim(workload.network(), workload.paths(), c.sim);
    const auto scheduler =
        sched::MakeScheduler(kind, sched::LmtfConfig{.alpha = config.alpha});
    return sim.Run(*scheduler, workload.events());
  };

  for (const sched::SchedulerKind kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kLmtf,
        sched::SchedulerKind::kPlmtf}) {
    SCOPED_TRACE(sched::ToString(kind));
    const SimResult uncached = run(kind, false, 0);
    const SimResult cached = run(kind, true, 0);
    // One shard per pod: a k-ary Fat-Tree has k pods.
    const SimResult sharded = run(kind, true, config.fat_tree_k);
    ExpectBehaviorIdentical(uncached, cached);
    ExpectBehaviorIdentical(uncached, sharded);
    if (kind != sched::SchedulerKind::kFifo) {
      EXPECT_GT(sharded.shard_stats.probe_fanouts, 0u);
    }
  }
}

TEST(ProbeFastPathTest, PlannerOverlayPlanMatchesDeepCopyPlan) {
  const Fixture fx;
  const update::EventPlanner planner(fx.provider, {},
                                     net::PathSelection::kWidest);
  for (const update::UpdateEvent& event : fx.events) {
    const update::EventPlan fast = planner.Plan(fx.network, event);
    // Reference: plan and commit on a deep copy of the network.
    net::Network copy = fx.network;
    const update::EventPlan legacy = planner.Execute(copy, event).plan;
    ASSERT_EQ(fast.actions.size(), legacy.actions.size());
    EXPECT_EQ(fast.fully_feasible, legacy.fully_feasible);
    EXPECT_EQ(fast.migrated_traffic, legacy.migrated_traffic);
    for (std::size_t i = 0; i < fast.actions.size(); ++i) {
      EXPECT_EQ(fast.actions[i].placeable, legacy.actions[i].placeable);
      EXPECT_EQ(fast.actions[i].flow_index, legacy.actions[i].flow_index);
      if (fast.actions[i].placeable) {
        EXPECT_EQ(fast.actions[i].path, legacy.actions[i].path);
      }
      ASSERT_EQ(fast.actions[i].migration.moves.size(),
                legacy.actions[i].migration.moves.size());
      for (std::size_t m = 0; m < fast.actions[i].migration.moves.size();
           ++m) {
        EXPECT_EQ(fast.actions[i].migration.moves[m].flow,
                  legacy.actions[i].migration.moves[m].flow);
        EXPECT_EQ(fast.actions[i].migration.moves[m].new_path,
                  legacy.actions[i].migration.moves[m].new_path);
        EXPECT_EQ(fast.actions[i].migration.moves[m].traffic,
                  legacy.actions[i].migration.moves[m].traffic);
      }
    }
  }
}

}  // namespace
}  // namespace nu::sim
