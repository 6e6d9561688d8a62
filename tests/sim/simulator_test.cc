#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sched/factory.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "trace/background.h"
#include "trace/yahoo_like.h"

namespace nu::sim {
namespace {

struct Fixture {
  explicit Fixture(double utilization = 0.0)
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        network(ft.graph()) {
    if (utilization > 0.0) {
      trace::YahooLikeGenerator gen(ft.hosts(), Rng(99));
      trace::BackgroundOptions options;
      options.target_utilization = utilization;
      trace::InjectBackground(network, provider, gen, options);
    }
  }

  [[nodiscard]] flow::Flow MakeFlow(std::size_t src, std::size_t dst,
                                    Mbps demand, Seconds duration) const {
    flow::Flow f;
    f.src = ft.host(src);
    f.dst = ft.host(dst);
    f.demand = demand;
    f.duration = duration;
    return f;
  }

  [[nodiscard]] update::UpdateEvent Event(
      std::uint64_t id, Seconds arrival,
      std::vector<flow::Flow> flows) const {
    return update::UpdateEvent(EventId{id}, arrival, std::move(flows));
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

SimConfig FastConfig() {
  SimConfig config;
  config.cost_model.plan_time_per_flow = 0.001;
  config.cost_model.migration_rate = 10000.0;
  config.cost_model.install_time_per_flow = 0.05;  // tests assume this scale
  config.seed = 7;
  return config;
}

TEST(SimulatorTest, SingleEventCompletes) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  events.push_back(fx.Event(0, 0.0, {fx.MakeFlow(0, 8, 10.0, 5.0),
                                     fx.MakeFlow(1, 9, 10.0, 3.0)}));
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  ASSERT_EQ(result.records.size(), 1u);
  const auto& rec = result.records[0];
  EXPECT_DOUBLE_EQ(rec.arrival, 0.0);
  EXPECT_GT(rec.exec_start, 0.0);  // plan time elapsed
  // Completion = exec start + install time for 2 flows (no migration).
  EXPECT_NEAR(rec.completion, rec.exec_start + 2 * 0.05, 1e-9);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.forced_placements, 0u);
  EXPECT_DOUBLE_EQ(rec.cost, 0.0);  // empty network, no migration
}

TEST(SimulatorTest, FifoRunsSequentially) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 3; ++i) {
    events.push_back(
        fx.Event(i, 0.0, {fx.MakeFlow(i, 8 + i, 10.0, 4.0)}));
  }
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);

  ASSERT_EQ(result.records.size(), 3u);
  // FIFO order: completions strictly increasing, each round waits for the
  // previous event to finish.
  EXPECT_LT(result.records[0].completion, result.records[1].completion);
  EXPECT_LT(result.records[1].completion, result.records[2].completion);
  EXPECT_GE(result.records[1].exec_start, result.records[0].completion);
  EXPECT_GE(result.records[2].exec_start, result.records[1].completion);
  EXPECT_EQ(result.rounds, 3u);
  // Every event's ECT at least its own installation time.
  for (const auto& rec : result.records) {
    EXPECT_GE(rec.Ect(), 0.05);
  }
}

TEST(SimulatorTest, DeterministicForSeed) {
  Fixture fx(0.4);
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 5; ++i) {
    events.push_back(fx.Event(i, 0.0,
                              {fx.MakeFlow(i, 10, 20.0, 2.0),
                               fx.MakeFlow(i + 1, 11, 15.0, 3.0)}));
  }
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::LmtfScheduler a(sched::LmtfConfig{.alpha = 2});
  sched::LmtfScheduler b(sched::LmtfConfig{.alpha = 2});
  const SimResult ra = sim.Run(a, events);
  const SimResult rb = sim.Run(b, events);
  EXPECT_DOUBLE_EQ(ra.report.avg_ect, rb.report.avg_ect);
  EXPECT_DOUBLE_EQ(ra.report.total_cost, rb.report.total_cost);
  EXPECT_DOUBLE_EQ(ra.report.total_plan_time, rb.report.total_plan_time);
}

TEST(SimulatorTest, RunsDoNotMutateInitialNetwork) {
  Fixture fx(0.3);
  const std::size_t flows_before = fx.network.placed_flow_count();
  std::vector<update::UpdateEvent> events;
  events.push_back(fx.Event(0, 0.0, {fx.MakeFlow(0, 8, 10.0, 1.0)}));
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::FifoScheduler fifo;
  (void)sim.Run(fifo, events);
  EXPECT_EQ(fx.network.placed_flow_count(), flows_before);
}

TEST(SimulatorTest, LaterArrivalWaits) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  events.push_back(fx.Event(0, 0.0, {fx.MakeFlow(0, 8, 10.0, 2.0)}));
  events.push_back(fx.Event(1, 100.0, {fx.MakeFlow(1, 9, 10.0, 2.0)}));
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_GE(result.records[1].exec_start, 100.0);
  // The idle gap means event 1's queuing delay is tiny.
  EXPECT_LT(result.records[1].QueuingDelay(), 1.0);
}

TEST(SimulatorTest, PlmtfExecutesMultipleEventsPerRound) {
  Fixture fx;
  // Five tiny events on an empty network: massively co-feasible.
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 5; ++i) {
    events.push_back(fx.Event(i, 0.0, {fx.MakeFlow(i, 8 + i, 5.0, 3.0)}));
  }
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::PlmtfScheduler plmtf(sched::LmtfConfig{.alpha = 4});
  const SimResult result = sim.Run(plmtf, events);
  EXPECT_LT(result.rounds, 5u);
  EXPECT_GT(result.cofeasibility_probes, 0u);
  // Parallel rounds: fewer decision points means less plan time and lower
  // average ECT than five sequential rounds would produce.
  sched::FifoScheduler fifo;
  const SimResult sequential = sim.Run(fifo, events);
  EXPECT_LT(result.report.avg_ect, sequential.report.avg_ect);
}

TEST(SimulatorTest, FifoNeverProbesCosts) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 3; ++i) {
    events.push_back(fx.Event(i, 0.0, {fx.MakeFlow(i, 8, 5.0, 1.0)}));
  }
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);
  EXPECT_EQ(result.cost_probes, 0u);
  EXPECT_EQ(result.cofeasibility_probes, 0u);
  EXPECT_GT(result.report.total_plan_time, 0.0);  // execution planning
}

TEST(SimulatorTest, LmtfPlanTimeExceedsFifo) {
  Fixture fx(0.5);
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 8; ++i) {
    events.push_back(fx.Event(i, 0.0,
                              {fx.MakeFlow(i, 12, 10.0, 2.0),
                               fx.MakeFlow(i, 13, 10.0, 2.0)}));
  }
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::FifoScheduler fifo;
  sched::LmtfScheduler lmtf(sched::LmtfConfig{.alpha = 4});
  const SimResult rf = sim.Run(fifo, events);
  const SimResult rl = sim.Run(lmtf, events);
  EXPECT_GT(rl.report.total_plan_time, rf.report.total_plan_time);
}

TEST(SimulatorTest, OversizedFlowIsForcePlacedEventually) {
  Fixture fx;
  // 150 Mbps demand can never fit a 100 Mbps fabric.
  std::vector<update::UpdateEvent> events;
  events.push_back(fx.Event(0, 0.0, {fx.MakeFlow(0, 8, 150.0, 1.0)}));
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);
  EXPECT_EQ(result.forced_placements, 1u);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_GE(result.records[0].completion, result.records[0].exec_start);
}

TEST(SimulatorTest, FlowLevelCompletesAllEvents) {
  Fixture fx(0.4);
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 4; ++i) {
    events.push_back(fx.Event(i, 0.0,
                              {fx.MakeFlow(i, 8, 10.0, 2.0),
                               fx.MakeFlow(i + 2, 9, 10.0, 2.0)}));
  }
  Simulator sim(fx.network, fx.provider, FastConfig());
  const SimResult result = sim.RunFlowLevel(events);
  ASSERT_EQ(result.records.size(), 4u);
  for (const auto& rec : result.records) {
    EXPECT_GE(rec.completion, rec.exec_start);
    EXPECT_GE(rec.exec_start, rec.arrival);
  }
  EXPECT_GT(result.report.makespan, 0.0);
}

// The baseline runs the configured auditor: a pass per occurrence at
// cadence 1 plus a final pass. A force-placed flow overcommits its links,
// and the forced count relaxes the capacity checks as in the event loop,
// so the fail-fast auditor lets the run finish.
TEST(SimulatorTest, FlowLevelAuditsAndRelaxesForcedPlacements) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  events.push_back(fx.Event(0, 0.0,
                            {fx.MakeFlow(0, 8, 20.0, 1.0),
                             fx.MakeFlow(1, 8, 150.0, 1.0)}));
  SimConfig config = FastConfig();
  const SimResult unaudited =
      Simulator(fx.network, fx.provider, config).RunFlowLevel(events);
  EXPECT_EQ(unaudited.guard_stats.audits_run, 0u);

  config.guard.auditor = {.enabled = true,
                          .mode = guard::AuditMode::kFailFast,
                          .cadence = 1};
  const SimResult result =
      Simulator(fx.network, fx.provider, config).RunFlowLevel(events);
  EXPECT_EQ(result.forced_placements, 1u);
  // Dispatch, the first flow's departure (the wide flow waits for it),
  // forced dispatch, final pass.
  EXPECT_EQ(result.guard_stats.audits_run, 4u);
  EXPECT_EQ(result.guard_stats.audit_violations, 0u);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.records.size(), unaudited.records.size());
  EXPECT_EQ(result.records[0].completion, unaudited.records[0].completion);
}

TEST(SimulatorTest, FlowLevelInterleavingDelaysFirstEvent) {
  Fixture fx;
  // Event 0 has many flows; events 1-3 one each. Under flow-level RR, event
  // 0's last flow dispatches near the end, so its ECT exceeds the
  // event-level FIFO ECT.
  std::vector<update::UpdateEvent> events;
  std::vector<flow::Flow> many;
  for (int i = 0; i < 8; ++i) {
    many.push_back(fx.MakeFlow(0, 8, 5.0, 1.0));
  }
  events.push_back(fx.Event(0, 0.0, std::move(many)));
  for (std::uint64_t i = 1; i < 4; ++i) {
    events.push_back(fx.Event(i, 0.0, {fx.MakeFlow(i, 9, 5.0, 1.0)}));
  }
  SimConfig config = FastConfig();
  config.cost_model.plan_time_per_flow = 0.5;  // make dispatch order visible
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult event_level = sim.Run(fifo, events);
  const SimResult flow_level = sim.RunFlowLevel(events);
  // Event-level FIFO finishes event 0 before touching 1-3.
  EXPECT_LT(event_level.records[0].completion,
            flow_level.records[0].completion);
}

TEST(SimulatorTest, PlmtfRoundLogShowsParallelRounds) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 6; ++i) {
    events.push_back(fx.Event(i, 0.0, {fx.MakeFlow(i, 10 + i % 4, 5.0, 2.0)}));
  }
  SimConfig config = FastConfig();
  config.keep_round_log = true;
  Simulator sim(fx.network, fx.provider, config);
  sched::PlmtfScheduler plmtf(sched::LmtfConfig{.alpha = 4});
  const SimResult result = sim.Run(plmtf, events);
  ASSERT_FALSE(result.round_log.empty());
  std::size_t executed = 0;
  bool any_parallel = false;
  for (const RoundLogEntry& round : result.round_log) {
    executed += round.executed.size();
    if (round.executed.size() > 1) any_parallel = true;
    EXPECT_GE(round.plan_time, 0.0);
  }
  EXPECT_EQ(executed, 6u);      // every event appears exactly once
  EXPECT_TRUE(any_parallel);    // tiny events on an empty net co-schedule
}

TEST(SimulatorTest, TailPercentileConfig) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 4; ++i) {
    events.push_back(fx.Event(i, 0.0, {fx.MakeFlow(i, 8, 5.0, 1.0)}));
  }
  SimConfig max_tail = FastConfig();
  SimConfig median_tail = FastConfig();
  median_tail.tail_percentile = 0.5;
  sched::FifoScheduler fifo;
  const SimResult rmax =
      Simulator(fx.network, fx.provider, max_tail).Run(fifo, events);
  const SimResult rmed =
      Simulator(fx.network, fx.provider, median_tail).Run(fifo, events);
  EXPECT_GT(rmax.report.tail_ect, rmed.report.tail_ect);
}

TEST(SimulatorTest, StaggeredArrivalsNeverRunBeforeArrival) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 6; ++i) {
    events.push_back(fx.Event(i, static_cast<double>(i) * 0.5,
                              {fx.MakeFlow(i, 9, 5.0, 1.0)}));
  }
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::LmtfScheduler lmtf(sched::LmtfConfig{.alpha = 2});
  const SimResult result = sim.Run(lmtf, events);
  for (const auto& rec : result.records) {
    EXPECT_GE(rec.exec_start, rec.arrival);
  }
}

TEST(SimulatorTest, FlowLevelStaggeredArrivals) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 4; ++i) {
    events.push_back(fx.Event(i, static_cast<double>(i) * 2.0,
                              {fx.MakeFlow(i, 9, 5.0, 1.0),
                               fx.MakeFlow(i, 10, 5.0, 1.0)}));
  }
  Simulator sim(fx.network, fx.provider, FastConfig());
  const SimResult result = sim.RunFlowLevel(events);
  ASSERT_EQ(result.records.size(), 4u);
  for (const auto& rec : result.records) {
    EXPECT_GE(rec.exec_start, rec.arrival);
    EXPECT_GE(rec.completion, rec.exec_start);
  }
}

TEST(SimulatorTest, QuickProbesReducePlanTime) {
  Fixture fx(0.5);
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 8; ++i) {
    events.push_back(fx.Event(i, 0.0,
                              {fx.MakeFlow(i, 12, 10.0, 2.0),
                               fx.MakeFlow(i, 13, 10.0, 2.0)}));
  }
  SimConfig exact = FastConfig();
  SimConfig quick = FastConfig();
  quick.quick_cost_probes = true;

  sched::LmtfScheduler lmtf_a(sched::LmtfConfig{.alpha = 4});
  sched::LmtfScheduler lmtf_b(sched::LmtfConfig{.alpha = 4});
  const SimResult exact_result =
      Simulator(fx.network, fx.provider, exact).Run(lmtf_a, events);
  const SimResult quick_result =
      Simulator(fx.network, fx.provider, quick).Run(lmtf_b, events);

  EXPECT_EQ(quick_result.records.size(), 8u);
  EXPECT_LT(quick_result.report.total_plan_time,
            exact_result.report.total_plan_time);
  // Probe counts identical: sampling structure does not change.
  EXPECT_EQ(quick_result.cost_probes, exact_result.cost_probes);
}

TEST(SimulatorTest, ReportAggregatesMatchRecords) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 3; ++i) {
    events.push_back(fx.Event(i, 0.0, {fx.MakeFlow(i, 8 + i, 10.0, 2.0)}));
  }
  Simulator sim(fx.network, fx.provider, FastConfig());
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);
  double sum_ect = 0.0, max_ect = 0.0;
  for (const auto& rec : result.records) {
    sum_ect += rec.Ect();
    max_ect = std::max(max_ect, rec.Ect());
  }
  EXPECT_NEAR(result.report.avg_ect, sum_ect / 3.0, 1e-9);
  EXPECT_NEAR(result.report.tail_ect, max_ect, 1e-9);
}

TEST(SimulatorTest, RoundLogRecordsExecutions) {
  Fixture fx;
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t i = 0; i < 2; ++i) {
    events.push_back(fx.Event(i, 0.0, {fx.MakeFlow(i, 8, 5.0, 1.0)}));
  }
  SimConfig config = FastConfig();
  config.keep_round_log = true;
  Simulator sim(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  const SimResult result = sim.Run(fifo, events);
  ASSERT_EQ(result.round_log.size(), 2u);
  EXPECT_EQ(result.round_log[0].executed.size(), 1u);
  EXPECT_EQ(result.round_log[0].executed[0], EventId{0});
  EXPECT_EQ(result.round_log[1].executed[0], EventId{1});
}

}  // namespace
}  // namespace nu::sim
