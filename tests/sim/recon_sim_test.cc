// Grey failures + reconciliation end to end: lying switches drift, the
// periodic read-back repairs them, runs converge to zero unexcused residual
// drift, quarantine drains perma-liars, the auditor's drift bound catches a
// reconciler that spins without escalating, and everything is bit-identical
// across reruns. Enabling the subsystem with a healthy dataplane must not
// perturb a run at all (disabled-subsystems-draw-nothing).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "metrics/export.h"
#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "update/planner.h"

namespace nu::sim {
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

std::vector<update::UpdateEvent> MakeEvents(const Fixture& fx) {
  std::vector<update::UpdateEvent> events;
  std::uint64_t id = 0;
  for (std::size_t wave = 0; wave < 4; ++wave) {
    for (std::size_t i = 0; i < 2; ++i) {
      std::vector<flow::Flow> flows;
      const std::size_t count = 2 + (wave + i) % 3;
      for (std::size_t f = 0; f < count; ++f) {
        flows.push_back(fx.MakeFlow((id + f) % 16, (id + f + 5) % 16,
                                    8.0 + static_cast<double>(f),
                                    20.0 + static_cast<double>(wave) * 5.0));
      }
      events.emplace_back(EventId{id}, 0.4 * static_cast<double>(wave) +
                                           0.1 * static_cast<double>(i),
                          std::move(flows));
      ++id;
    }
  }
  return events;
}

SimConfig GreyConfig() {
  SimConfig config;
  config.seed = 20260809;
  config.cost_model.plan_time_per_flow = 0.002;
  config.cost_model.install_time_per_flow = 0.05;
  config.faults.grey =
      fault::ParseGreyModel("acklie:0.25+straggler:0.3:0.1:0.5+loss:0.15:0.5:1.5");
  config.recon.enabled = true;
  config.guard.auditor.enabled = true;
  config.guard.auditor.cadence = 1;
  return config;
}

SimResult RunWith(const Fixture& fx, const SimConfig& config,
                  sched::SchedulerKind kind,
                  std::span<const update::UpdateEvent> events) {
  Simulator sim(fx.network, fx.provider, config);
  const auto scheduler = sched::MakeScheduler(kind);
  return sim.Run(*scheduler, events);
}

std::string RecordsCsv(const SimResult& result) {
  std::ostringstream out;
  metrics::WriteRecordsCsv(out, result.records);
  return out.str();
}

std::string ReportCsv(const SimResult& result) {
  std::ostringstream out;
  metrics::WriteReportCsv(out, result.report);
  return out.str();
}

class ReconSimTest : public ::testing::TestWithParam<sched::SchedulerKind> {};

/// The tentpole invariant: a lossy grey run converges. Every divergence is
/// either repaired or explicitly abandoned — active drift at end of run
/// would have deadlocked the drain gate or shown up as excess residual.
TEST_P(ReconSimTest, GreyRunConvergesToExcusedResidualOnly) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  const SimResult result = RunWith(fx, GreyConfig(), GetParam(), events);

  const metrics::Report& rep = result.report;
  EXPECT_GT(rep.drift_checks, 0u);
  EXPECT_GT(rep.grey_ack_lies + rep.grey_stragglers + rep.grey_rules_lost, 0u);
  EXPECT_GT(rep.drift_rules_detected, 0u);
  EXPECT_GT(rep.drift_repairs, 0u);
  // Residual divergence is exactly the abandoned entries still present —
  // nothing active survived the drain gate.
  EXPECT_LE(rep.drift_residual_rules, rep.drift_rules_abandoned);
  EXPECT_TRUE(result.violations.empty()) << result.violations.size();
  EXPECT_EQ(result.records.size(), events.size());
}

TEST_P(ReconSimTest, GreyRunsAreBitIdentical) {
  const Fixture fx;
  const auto events = MakeEvents(fx);
  const SimResult a = RunWith(fx, GreyConfig(), GetParam(), events);
  const SimResult b = RunWith(fx, GreyConfig(), GetParam(), events);
  EXPECT_EQ(RecordsCsv(a), RecordsCsv(b));
  EXPECT_EQ(ReportCsv(a), ReportCsv(b));
  EXPECT_TRUE(a.violations.empty()) << a.violations.size();
}

/// Reconciler on, dataplane honest: no draws, no drift, and the run is
/// byte-identical to one with the subsystem off entirely. The baseline
/// stays guard-off; the reconciled run is audited after every batch.
TEST_P(ReconSimTest, HonestDataplaneIsObservationallyTransparent) {
  const Fixture fx;
  const auto events = MakeEvents(fx);

  SimConfig plain;
  plain.seed = 20260809;
  plain.cost_model.plan_time_per_flow = 0.002;
  plain.cost_model.install_time_per_flow = 0.05;
  const SimResult baseline = RunWith(fx, plain, GetParam(), events);

  SimConfig with_recon = plain;
  with_recon.recon.enabled = true;
  with_recon.guard.auditor = {.enabled = true,
                              .mode = guard::AuditMode::kFailFast,
                              .cadence = 1};
  const SimResult reconciled = RunWith(fx, with_recon, GetParam(), events);

  EXPECT_EQ(RecordsCsv(reconciled), RecordsCsv(baseline));
  EXPECT_EQ(reconciled.report.drift_checks, 0u);
  EXPECT_EQ(reconciled.report.drift_rules_detected, 0u);
  // Every issued rule verified on the spot; nothing ever drifted.
  EXPECT_GT(reconciled.recon_stats.rules_issued, 0u);
  EXPECT_EQ(reconciled.recon_stats.rules_verified,
            reconciled.recon_stats.rules_issued);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ReconSimTest,
                         ::testing::Values(sched::SchedulerKind::kFifo,
                                           sched::SchedulerKind::kLmtf,
                                           sched::SchedulerKind::kPlmtf));

/// A switch that lies on every install is quarantined and drained like a
/// switch-down fault; its residual drift is dropped with it.
TEST(ReconQuarantineTest, PermaLiarIsQuarantinedAndDrained) {
  const Fixture fx;
  SimConfig config;
  config.seed = 7;
  config.cost_model.plan_time_per_flow = 0.001;
  config.cost_model.install_time_per_flow = 0.05;
  config.recon.enabled = true;
  config.guard.auditor.enabled = true;
  config.guard.auditor.cadence = 1;
  // One incident pass is enough to quarantine: the EWMA jumps straight
  // past the threshold.
  config.recon.health.ewma_alpha = 0.9;

  // Aim total ack-lies at the aggregation switch the planner will route
  // through; the pod has a second one, so draining the liar leaves a
  // surviving path for the flow.
  const flow::Flow flow = fx.MakeFlow(0, 12, 10.0, 50.0);
  net::Network probe_net = fx.network;
  const update::EventPlanner planner(fx.provider, config.migration_options,
                                     config.path_selection);
  Mbps migrated = 0.0;
  const auto placed = planner.PlaceFlow(probe_net, flow, &migrated);
  ASSERT_TRUE(placed.has_value());
  const NodeId liar = probe_net.PathOf(*placed).nodes[2];
  config.faults.grey = fault::ParseGreyModel(
      "acklie:1:0:0:0:0:" + std::to_string(liar.value()));

  std::vector<update::UpdateEvent> events;
  events.emplace_back(EventId{0}, 0.0, std::vector<flow::Flow>{flow});
  const SimResult result =
      RunWith(fx, config, sched::SchedulerKind::kLmtf, events);

  EXPECT_EQ(result.report.switches_quarantined, 1u);
  EXPECT_GE(result.fault_stats.switch_failures, 1u);  // the synthetic drain
  // The quarantined switch took its divergence with it.
  EXPECT_EQ(result.report.drift_residual_rules, 0u);
  EXPECT_TRUE(result.violations.empty());
}

/// With quarantine disabled, a perma-liar must trip the auditor's
/// bounded-drift invariant instead of spinning silently.
TEST(ReconAuditTest, UnboundedDriftIsAnAuditViolation) {
  const Fixture fx;
  SimConfig config;
  config.seed = 7;
  config.cost_model.plan_time_per_flow = 0.001;
  config.cost_model.install_time_per_flow = 0.05;
  config.faults.grey = fault::ParseGreyModel("acklie:1");
  config.recon.enabled = true;
  config.recon.period = 0.05;
  config.recon.health.quarantine_threshold = 2.0;  // never quarantine
  config.recon.max_passes_at_drift = 2;
  config.guard.auditor.enabled = true;
  config.guard.auditor.mode = guard::AuditMode::kLogAndCount;
  config.guard.auditor.cadence = 1;

  std::vector<update::UpdateEvent> events;
  events.emplace_back(
      EventId{0}, 0.0,
      std::vector<flow::Flow>{fx.MakeFlow(0, 12, 10.0, 30.0)});
  const SimResult result =
      RunWith(fx, config, sched::SchedulerKind::kFifo, events);

  bool saw_drift = false;
  for (const guard::AuditViolation& v : result.violations) {
    if (v.invariant == "drift") saw_drift = true;
  }
  EXPECT_TRUE(saw_drift) << result.violations.size()
                         << " violations, none from the drift invariant";
  // The run still terminates: every rule's repair budget ran out.
  EXPECT_GT(result.report.drift_rules_abandoned, 0u);
}

}  // namespace
}  // namespace nu::sim
