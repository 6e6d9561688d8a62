// Simulator under the overload guard: bounded queues shed observably,
// deadline overruns abort + roll back + requeue with backoff, poison events
// land in quarantine, the auditor sees zero violations on healthy runs, and
// a generously-configured guard never perturbs a run's results.
#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

namespace nu::sim {
namespace {

/// Fat-tree fixture for multi-path workloads.
struct TreeFixture {
  TreeFixture()
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        network(ft.graph()) {}

  [[nodiscard]] flow::Flow MakeFlow(std::size_t src, std::size_t dst,
                                    Mbps demand, Seconds duration) const {
    flow::Flow f;
    f.src = ft.host(src);
    f.dst = ft.host(dst);
    f.demand = demand;
    f.duration = duration;
    return f;
  }

  [[nodiscard]] update::UpdateEvent Event(std::uint64_t id, Seconds arrival,
                                          std::vector<flow::Flow> flows) const {
    return update::UpdateEvent(EventId{id}, arrival, std::move(flows));
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

/// Two hosts, one 100 Mbps cable: lets tests exhaust capacity exactly.
struct BottleneckFixture {
  BottleneckFixture() {
    a = graph.AddNode(topo::NodeRole::kHost);
    b = graph.AddNode(topo::NodeRole::kHost);
    graph.AddBidirectional(a, b, 100.0);
    provider.emplace(graph, 2);
    network.emplace(graph);
  }

  [[nodiscard]] flow::Flow MakeFlow(Mbps demand, Seconds duration) const {
    flow::Flow f;
    f.src = a;
    f.dst = b;
    f.demand = demand;
    f.duration = duration;
    return f;
  }

  /// Permanently occupies `demand` (no churn: background never departs).
  void OccupyForever(Mbps demand) {
    flow::Flow f = MakeFlow(demand, 1e9);
    f.origin = flow::FlowOrigin::kBackground;
    const std::array<NodeId, 2> seq{a, b};
    network->Place(std::move(f), graph.MakePath(seq));
  }

  topo::Graph graph;
  NodeId a, b;
  std::optional<topo::KspPathProvider> provider;
  std::optional<net::Network> network;
};

SimConfig FastConfig() {
  SimConfig config;
  config.cost_model.plan_time_per_flow = 0.001;
  config.cost_model.migration_rate = 10000.0;
  config.cost_model.install_time_per_flow = 0.01;
  config.seed = 11;
  config.guard.auditor = {.enabled = true,
                          .mode = guard::AuditMode::kFailFast,
                          .cadence = 1};
  return config;
}

metrics::TerminalStatus StatusOf(const SimResult& result, std::uint64_t id) {
  for (const auto& rec : result.records) {
    if (rec.event == EventId{id}) return rec.status;
  }
  ADD_FAILURE() << "no record for event " << id;
  return metrics::TerminalStatus::kPending;
}

TEST(GuardSimTest, RejectNewShedsArrivalsBeyondBound) {
  TreeFixture fx;
  SimConfig config = FastConfig();
  config.guard.overload.max_queue_length = 1;
  config.guard.overload.policy = guard::OverloadPolicy::kRejectNew;

  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 3; ++i) {
    events.push_back(fx.Event(i, 0.0, {fx.MakeFlow(i, 8 + i, 10.0, 1.0)}));
  }
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(StatusOf(result, 0), metrics::TerminalStatus::kCompleted);
  EXPECT_EQ(StatusOf(result, 1), metrics::TerminalStatus::kShed);
  EXPECT_EQ(StatusOf(result, 2), metrics::TerminalStatus::kShed);
  EXPECT_EQ(result.guard_stats.events_shed, 2u);
  EXPECT_EQ(result.guard_stats.max_queue_length, 1u);
  EXPECT_EQ(result.report.events_completed, 1u);
  EXPECT_EQ(result.report.events_shed, 2u);
}

TEST(GuardSimTest, ShedOldestKeepsTheFreshestArrival) {
  TreeFixture fx;
  SimConfig config = FastConfig();
  config.guard.overload.max_queue_length = 1;
  config.guard.overload.policy = guard::OverloadPolicy::kShedOldest;

  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 3; ++i) {
    events.push_back(fx.Event(i, 0.0, {fx.MakeFlow(i, 8 + i, 10.0, 1.0)}));
  }
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  EXPECT_EQ(StatusOf(result, 0), metrics::TerminalStatus::kShed);
  EXPECT_EQ(StatusOf(result, 1), metrics::TerminalStatus::kShed);
  EXPECT_EQ(StatusOf(result, 2), metrics::TerminalStatus::kCompleted);
  EXPECT_EQ(result.guard_stats.events_shed, 2u);
}

TEST(GuardSimTest, WatchdogQuarantinesPermanentlyBlockedEvent) {
  BottleneckFixture fx;
  fx.OccupyForever(100.0);  // the event's flow can never fit
  SimConfig config = FastConfig();
  config.guard.deadline.base_deadline = 1.0;
  config.guard.deadline.max_failures = 3;
  config.guard.deadline.requeue_backoff = 0.5;

  std::vector<update::UpdateEvent> events;
  events.push_back(update::UpdateEvent(EventId{0}, 0.0,
                                       {fx.MakeFlow(50.0, 5.0)}));
  Simulator sim(*fx.network, *fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].status, metrics::TerminalStatus::kQuarantined);
  EXPECT_EQ(result.records[0].deadline_misses, 3u);
  EXPECT_EQ(result.guard_stats.deadline_misses, 3u);
  EXPECT_EQ(result.guard_stats.events_requeued, 2u);
  EXPECT_EQ(result.guard_stats.events_quarantined, 1u);
  EXPECT_EQ(result.report.events_quarantined, 1u);
  EXPECT_EQ(result.forced_placements, 0u);  // quarantine, not force-place
}

TEST(GuardSimTest, WatchdogAbortRollsBackPlacements) {
  // Event 0 installs its 30 Mbps flow (1 s install) but blocks forever on a
  // 200 Mbps flow; its deadline (1.2 s) fires after the install lands, so
  // the abort must roll the INSTALLED placement back. Event 1 (single flow,
  // 1 s install, 1.2 s deadline) then needs 80 Mbps — it only completes if
  // the rollback really freed event 0's 30 Mbps.
  BottleneckFixture fx;
  SimConfig config = FastConfig();
  config.cost_model.install_time_per_flow = 1.0;
  config.guard.deadline.base_deadline = 1.2;
  config.guard.deadline.max_failures = 1;  // quarantine on the first miss

  std::vector<update::UpdateEvent> events;
  events.push_back(update::UpdateEvent(
      EventId{0}, 0.0, {fx.MakeFlow(30.0, 5.0), fx.MakeFlow(200.0, 5.0)}));
  events.push_back(update::UpdateEvent(EventId{1}, 5.0,
                                       {fx.MakeFlow(80.0, 1.0)}));
  Simulator sim(*fx.network, *fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  EXPECT_EQ(StatusOf(result, 0), metrics::TerminalStatus::kQuarantined);
  EXPECT_EQ(StatusOf(result, 1), metrics::TerminalStatus::kCompleted);
  EXPECT_EQ(result.guard_stats.deadline_misses, 1u);
  EXPECT_EQ(result.guard_stats.events_quarantined, 1u);
  EXPECT_GT(result.guard_stats.audits_run, 0u);
  EXPECT_EQ(result.guard_stats.audit_violations, 0u);
}

TEST(GuardSimTest, RequeuedEventCompletesOnceCapacityReturns) {
  // Event 0 blocks on a flow that only fits after the short-lived
  // background load departs; its first attempt times out, the second (after
  // backoff) succeeds — exercising abort -> requeue -> re-execute -> done.
  BottleneckFixture fx;
  SimConfig config = FastConfig();
  config.guard.deadline.base_deadline = 1.0;
  config.guard.deadline.max_failures = 5;
  config.guard.deadline.requeue_backoff = 2.0;

  std::vector<update::UpdateEvent> events;
  // An 80 Mbps event flow (duration 1) occupies the link until t=2.01-ish.
  events.push_back(update::UpdateEvent(EventId{0}, 0.0,
                                       {fx.MakeFlow(80.0, 2.0)}));
  // This 50 Mbps flow cannot fit beside it: blocks, times out at ~1, parks
  // until ~3, then fits (the 80 Mbps flow departed at ~2).
  events.push_back(update::UpdateEvent(EventId{1}, 0.0,
                                       {fx.MakeFlow(50.0, 1.0)}));
  Simulator sim(*fx.network, *fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  EXPECT_EQ(StatusOf(result, 0), metrics::TerminalStatus::kCompleted);
  EXPECT_EQ(StatusOf(result, 1), metrics::TerminalStatus::kCompleted);
  EXPECT_GE(result.guard_stats.deadline_misses, 1u);
  EXPECT_GE(result.guard_stats.events_requeued, 1u);
  EXPECT_EQ(result.guard_stats.events_quarantined, 0u);
}

TEST(GuardSimTest, GenerousGuardNeverPerturbsResults) {
  // Guard fully on but with limits no healthy run hits: records must be
  // bit-identical to the guard-off run, and the auditor (fail-fast, every
  // batch) must stay silent.
  TreeFixture fx;
  SimConfig off = FastConfig();
  off.guard.auditor.enabled = false;
  SimConfig on = FastConfig();
  on.guard.overload.max_queue_length = 1000;
  on.guard.deadline.base_deadline = 1e6;

  auto run = [&](const SimConfig& config) {
    std::vector<update::UpdateEvent> events;
    for (std::uint64_t i = 0; i < 4; ++i) {
      events.push_back(fx.Event(i, 0.5 * static_cast<double>(i),
                                {fx.MakeFlow(i, 8 + i, 20.0, 2.0),
                                 fx.MakeFlow(i + 4, 12 + i, 20.0, 2.0)}));
    }
    Simulator sim(fx.network, fx.provider, config);
    sched::LmtfScheduler lmtf;
    return sim.Run(lmtf, events);
  };

  const SimResult base = run(off);
  const SimResult guarded = run(on);
  ASSERT_EQ(base.records.size(), guarded.records.size());
  for (std::size_t i = 0; i < base.records.size(); ++i) {
    EXPECT_EQ(base.records[i].event, guarded.records[i].event);
    EXPECT_DOUBLE_EQ(base.records[i].exec_start,
                     guarded.records[i].exec_start);
    EXPECT_DOUBLE_EQ(base.records[i].completion,
                     guarded.records[i].completion);
    EXPECT_DOUBLE_EQ(base.records[i].cost, guarded.records[i].cost);
  }
  EXPECT_DOUBLE_EQ(base.report.avg_ect, guarded.report.avg_ect);
  EXPECT_DOUBLE_EQ(base.report.total_cost, guarded.report.total_cost);
  EXPECT_GT(guarded.guard_stats.audits_run, 0u);
  EXPECT_EQ(guarded.guard_stats.audit_violations, 0u);
  EXPECT_EQ(guarded.guard_stats.events_shed, 0u);
  EXPECT_EQ(guarded.guard_stats.deadline_misses, 0u);
}

TEST(GuardSimTest, BoundedQueueStaysBoundedUnderBurst) {
  TreeFixture fx;
  SimConfig config = FastConfig();
  config.cost_model.plan_time_per_flow = 0.05;  // slow rounds: queue builds
  config.guard.overload.max_queue_length = 4;
  config.guard.overload.policy = guard::OverloadPolicy::kShedCostliest;

  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 20; ++i) {
    events.push_back(fx.Event(i, 0.01 * static_cast<double>(i),
                              {fx.MakeFlow(i % 8, 8 + i % 8, 10.0, 2.0)}));
  }
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  ASSERT_EQ(result.records.size(), 20u);
  EXPECT_LE(result.guard_stats.max_queue_length, 4u);
  EXPECT_GT(result.guard_stats.events_shed, 0u);
  std::size_t completed = 0;
  for (const auto& rec : result.records) {
    EXPECT_TRUE(rec.terminal());
    if (rec.status == metrics::TerminalStatus::kCompleted) ++completed;
  }
  EXPECT_EQ(completed + result.guard_stats.events_shed, 20u);
  EXPECT_EQ(result.guard_stats.audit_violations, 0u);
}

}  // namespace
}  // namespace nu::sim
