// The sharded engine's determinism oracle: a pod-sharded run must produce
// byte-identical per-event records and report CSVs to the plain
// single-shard run — per scheduler, with fault injection and the auditor
// enabled, at EVERY worker thread count. The coordinator is the only thread
// that mutates simulation state; each pool task writes only its own plan
// slots, and the coordinator reads them in candidate order after joining
// every task, so nothing observable may depend on how the OS schedules the
// pool.
//
// Own main(): `--quick` restricts the sweep to 2 worker threads (the CI
// sharded-smoke job runs this binary under TSan, where the full sweep is
// needlessly slow; two threads already run tasks concurrently).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_plan.h"
#include "metrics/export.h"
#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

namespace nu::sim {

/// Set by main() when the binary is invoked with --quick.
bool quick_mode = false;

namespace {

struct Fixture {
  Fixture()
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

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

/// Wide workload with deliberate cross-pod flows (src and dst pods differ
/// for most flows), staggered arrivals, and enough rounds for several
/// probe fan-outs per scheduler.
std::vector<update::UpdateEvent> MakeEvents(const Fixture& fx) {
  std::vector<update::UpdateEvent> events;
  std::uint64_t id = 0;
  for (std::size_t wave = 0; wave < 5; ++wave) {
    for (std::size_t i = 0; i < 3; ++i) {
      std::vector<flow::Flow> flows;
      const std::size_t count = 2 + (wave + i) % 3;
      for (std::size_t f = 0; f < count; ++f) {
        // Hosts 16 per k=4 tree; src/dst straddle pods on purpose.
        flows.push_back(fx.MakeFlow((id * 3 + f) % 16, (id * 3 + f + 7) % 16,
                                    6.0 + static_cast<double>(f),
                                    15.0 + static_cast<double>(wave) * 4.0));
      }
      events.emplace_back(EventId{id}, 0.3 * static_cast<double>(wave) +
                                           0.08 * static_cast<double>(i),
                          std::move(flows));
      ++id;
    }
  }
  return events;
}

/// Faults + auditor + overload guard + watchdog on: the oracle must hold in
/// the lossy regime, where probes replan against fault-mutated state.
SimConfig OracleConfig(const Fixture& fx) {
  SimConfig config;
  config.seed = 20260808;
  config.cost_model.plan_time_per_flow = 0.002;
  config.cost_model.install_time_per_flow = 0.05;
  config.faults.plan.AddLinkOutage(0.5, 2.0,
                                   fx.ft.graph().OutLinks(fx.ft.host(0))[0]);
  config.faults.flaky.failure_probability = 0.15;
  config.faults.flaky.latency_jitter_frac = 0.1;
  config.faults.retry.max_attempts = 3;
  config.faults.retry.base_delay = 0.05;
  config.guard.overload.max_queue_length = 8;
  config.guard.deadline.base_deadline = 5.0;
  config.guard.deadline.per_flow_deadline = 1.0;
  config.guard.deadline.requeue_backoff = 0.5;
  config.guard.deadline.max_failures = 3;
  config.guard.auditor = {.enabled = true,
                          .mode = guard::AuditMode::kFailFast,
                          .cadence = 1};
  return config;
}

std::string RecordsCsv(const SimResult& result) {
  std::ostringstream out;
  metrics::WriteRecordsCsv(out, result.records);
  return out.str();
}

/// Report CSV. Without checkpoints no column reads the host clock, so every
/// column must match exactly.
std::string ReportCsv(const SimResult& result) {
  std::ostringstream out;
  metrics::WriteReportCsv(out, result.report);
  return out.str();
}

SimResult RunWith(const Fixture& fx, const SimConfig& config,
                  sched::SchedulerKind kind,
                  std::span<const update::UpdateEvent> events) {
  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(kind);
  return sim.Run(*scheduler, events);
}

class ShardDeterminismTest
    : public ::testing::TestWithParam<sched::SchedulerKind> {};

// The differential proper: sharded(k pods, T threads) == unsharded, for
// T in {1,2,4,8}, byte for byte.
TEST_P(ShardDeterminismTest, ShardedMatchesUnshardedAtAnyThreadCount) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  const SimConfig plain = OracleConfig(fx);
  const SimResult baseline = RunWith(fx, plain, GetParam(), events);
  const std::string want_records = RecordsCsv(baseline);
  const std::string want_report = ReportCsv(baseline);
  ASSERT_GE(baseline.rounds, 3u);
  EXPECT_FALSE(baseline.shard_stats.enabled);

  const std::vector<std::size_t> thread_counts =
      quick_mode ? std::vector<std::size_t>{2}
                 : std::vector<std::size_t>{1, 2, 4, 8};
  for (const std::size_t threads : thread_counts) {
    SimConfig sharded = plain;
    sharded.shards = fx.ft.pod_count();
    sharded.shard_threads = threads;
    const SimResult result = RunWith(fx, sharded, GetParam(), events);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(RecordsCsv(result), want_records);
    EXPECT_EQ(ReportCsv(result), want_report);
    EXPECT_EQ(result.rounds, baseline.rounds);
    EXPECT_EQ(result.violations.size(), baseline.violations.size());
    EXPECT_TRUE(result.shard_stats.enabled);
    EXPECT_EQ(result.shard_stats.shards, fx.ft.pod_count());
    EXPECT_EQ(result.shard_stats.threads, threads);
  }
}

// The fan-out counts are part of the determinism contract: thread count
// must not change them.
TEST_P(ShardDeterminismTest, LogicalCountersAreThreadCountInvariant) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  SimConfig config = OracleConfig(fx);
  config.shards = fx.ft.pod_count();

  config.shard_threads = 1;
  const SimResult one = RunWith(fx, config, GetParam(), events);
  config.shard_threads = quick_mode ? 2 : 8;
  const SimResult many = RunWith(fx, config, GetParam(), events);

  EXPECT_EQ(one.shard_stats.probe_fanouts, many.shard_stats.probe_fanouts);
  EXPECT_EQ(one.shard_stats.audit_fanouts, many.shard_stats.audit_fanouts);
  // The LMTF family probes batches with misses, so the pool really runs.
  if (GetParam() != sched::SchedulerKind::kFifo) {
    EXPECT_GT(one.shard_stats.probe_fanouts, 0u);
  }
}

// With a lying dataplane and the reconciler on, the sharded run (probes fan
// out, reconcile passes stay on the coordinator) must still match the
// unsharded run byte for byte at every thread count.
TEST_P(ShardDeterminismTest, GreyReconciliationIsThreadCountInvariant) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  SimConfig plain = OracleConfig(fx);
  plain.faults.grey = fault::ParseGreyModel(
      "acklie:0.2+straggler:0.25:0.1:0.5+loss:0.1:0.5:1.5");
  plain.recon.enabled = true;
  const SimResult baseline = RunWith(fx, plain, GetParam(), events);
  const std::string want_records = RecordsCsv(baseline);
  const std::string want_report = ReportCsv(baseline);
  ASSERT_GT(baseline.report.drift_rules_detected, 0u);

  const std::vector<std::size_t> thread_counts =
      quick_mode ? std::vector<std::size_t>{2}
                 : std::vector<std::size_t>{1, 2, 4, 8};
  for (const std::size_t threads : thread_counts) {
    SimConfig sharded = plain;
    sharded.shards = fx.ft.pod_count();
    sharded.shard_threads = threads;
    const SimResult result = RunWith(fx, sharded, GetParam(), events);
    SCOPED_TRACE("grey threads=" + std::to_string(threads));
    EXPECT_EQ(RecordsCsv(result), want_records);
    EXPECT_EQ(ReportCsv(result), want_report);
    EXPECT_TRUE(result.shard_stats.enabled);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, ShardDeterminismTest,
                         ::testing::Values(sched::SchedulerKind::kFifo,
                                           sched::SchedulerKind::kLmtf,
                                           sched::SchedulerKind::kPlmtf));

}  // namespace
}  // namespace nu::sim

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") nu::sim::quick_mode = true;
  }
  return RUN_ALL_TESTS();
}
