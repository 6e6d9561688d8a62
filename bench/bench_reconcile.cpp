// Robustness bench — grey failures & dataplane reconciliation at the scale
// tier (k=16 Fat-Tree, 50k background flows). Sweeps the grey-failure rate
// from an honest dataplane up to heavy lying/straggling/rule loss and
// reports what the anti-entropy reconciler costs and delivers per
// scheduler: end-to-end wall time against the recon-off baseline, the
// drift funnel (injected -> detected -> repaired -> abandoned ->
// quarantined -> residual), and divergence-onset -> repair latency.
//
// Two built-in acceptance checks land in the JSON:
//   * honest_runs_draw_nothing — recon on + honest dataplane performs zero
//     drift checks (the subsystem arms itself only when grey events fire),
//   * converged_at_every_rate — residual divergence never exceeds the
//     explicitly abandoned rules at any point of the sweep.
//
// Run:  ./bench_reconcile [--quick] [--csv=PATH] [--txt=PATH] [--json=PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "metrics/report.h"
#include "net/admission.h"
#include "net/network.h"
#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "update/update_event.h"

using namespace nu;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fills `network` with `count` random-pair background flows (the grey
/// model leaves background traffic reliable; the flows are here so drift
/// detection and repair run against production-sized hot state).
std::size_t InjectFlows(net::Network& network, const topo::FatTree& ft,
                        const topo::PathProvider& provider, std::size_t count,
                        Rng& rng) {
  std::size_t placed = 0;
  std::size_t attempts = 0;
  const std::size_t hosts = ft.host_count();
  while (placed < count && attempts < count * 20) {
    ++attempts;
    const NodeId src = ft.host(rng.Index(hosts));
    const NodeId dst = ft.host(rng.Index(hosts));
    if (src == dst) continue;
    const Mbps demand = 0.5 + rng.Uniform(0.0, 1.5);
    if (const auto path =
            net::FindFeasiblePath(network, provider, src, dst, demand,
                                  net::PathSelection::kFirstFit)) {
      flow::Flow f;
      f.src = src;
      f.dst = dst;
      f.demand = demand;
      f.duration = 1e6;  // steady-state backdrop, never departs
      f.origin = flow::FlowOrigin::kBackground;
      network.Place(f, *path);
      ++placed;
    }
  }
  return placed;
}

std::vector<update::UpdateEvent> MakeEvents(const topo::FatTree& ft,
                                            std::size_t count, Rng& rng) {
  std::vector<update::UpdateEvent> events;
  events.reserve(count);
  const std::size_t hosts = ft.host_count();
  for (std::uint64_t e = 0; e < count; ++e) {
    std::vector<flow::Flow> flows;
    const std::size_t flows_per_event = 4 + rng.Index(4);
    for (std::size_t i = 0; i < flows_per_event; ++i) {
      flow::Flow f;
      f.src = ft.host(rng.Index(hosts));
      while ((f.dst = ft.host(rng.Index(hosts))) == f.src) {
      }
      f.demand = 1.0 + rng.Uniform(0.0, 2.0);
      f.duration = 10.0 + rng.Uniform(0.0, 20.0);
      flows.push_back(f);
    }
    events.push_back(update::UpdateEvent(
        EventId{e}, 0.2 * static_cast<double>(e), std::move(flows)));
  }
  return events;
}

/// A mixed grey model scaled by `rate`: half the rate lies about acks, the
/// full rate straggles, half silently drops rules later.
fault::GreyFailureModel GreyAtRate(double rate) {
  fault::GreyFailureModel model;
  if (rate <= 0.0) return model;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "acklie:%.3f+straggler:%.3f:0.1:0.5+loss:%.3f:0.5:1.5",
                rate / 2.0, rate, rate / 2.0);
  return fault::ParseGreyModel(buf).Validate();
}

struct BenchRow {
  std::string mode;       // "recon-off", "honest", or the grey rate
  std::string scheduler;
  double rate = 0.0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double overhead_pct = 0.0;  // vs the recon-off baseline, same scheduler
  metrics::Report report;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const std::size_t k = flags.GetUint("k", quick ? 8 : 16);
  const std::size_t flow_target =
      flags.GetUint("flows", quick ? 5'000 : 50'000);
  const std::size_t event_count =
      flags.GetUint("events", quick ? 40 : 150);
  const std::string json_path =
      flags.GetString("json", "BENCH_reconcile.json");
  const std::string csv_path = flags.GetString("csv", "");
  const std::string txt_path = flags.GetString("txt", "");

  bench::PrintHeader(
      "Robustness: grey failures & dataplane drift reconciliation",
      quick ? "quick sweep (CI): k=8, 5k background flows"
            : "k=16 Fat-Tree, 50k background flows, grey-rate sweep");

  topo::FatTree ft(topo::FatTreeConfig{
      .k = k, .link_capacity = quick ? 2000.0 : 4000.0});
  topo::FatTreePathProvider provider(ft);
  net::Network network(ft.graph());
  Rng inject_rng(777);
  const auto inject_start = Clock::now();
  const std::size_t placed =
      InjectFlows(network, ft, provider, flow_target, inject_rng);
  network.ShrinkToFit();
  std::printf("injected %zu/%zu background flows in %.2fs\n", placed,
              flow_target, SecondsSince(inject_start));

  Rng event_rng(4242);
  const auto events = MakeEvents(ft, event_count, event_rng);

  const std::vector<double> rates{0.0, 0.05, 0.1, 0.2, 0.4};
  const std::vector<sched::SchedulerKind> kinds{sched::SchedulerKind::kFifo,
                                                sched::SchedulerKind::kLmtf,
                                                sched::SchedulerKind::kPlmtf};

  AsciiTable table({"mode", "scheduler", "wall s", "events/s", "overhead %",
                    "checks", "detected", "repaired", "abandoned", "quar",
                    "residual", "rep mean (s)", "rep p99 (s)"});
  std::vector<BenchRow> rows;
  std::vector<double> baseline_wall(kinds.size(), 0.0);

  const auto run_point = [&](const std::string& mode, double rate,
                             bool recon_on, std::size_t kind_idx) {
    sim::SimConfig config;
    config.seed = 20260809;
    config.cost_model.plan_time_per_flow = 0.002;
    config.cost_model.install_time_per_flow = 0.05;
    config.faults.grey = GreyAtRate(rate);
    config.recon.enabled = recon_on;
    config.guard.auditor.enabled = true;
    config.guard.auditor.cadence = quick ? 20 : 50;

    sim::Simulator simulator(network, provider, config);
    const auto scheduler = sched::MakeScheduler(kinds[kind_idx]);
    const auto start = Clock::now();
    const sim::SimResult result = simulator.Run(*scheduler, events);

    BenchRow row;
    row.mode = mode;
    row.scheduler = sched::ToString(kinds[kind_idx]);
    row.rate = rate;
    row.wall_seconds = SecondsSince(start);
    row.events_per_sec =
        row.wall_seconds > 0.0
            ? static_cast<double>(result.report.event_count) / row.wall_seconds
            : 0.0;
    if (mode == "recon-off") {
      baseline_wall[kind_idx] = row.wall_seconds;
    } else if (baseline_wall[kind_idx] > 0.0) {
      row.overhead_pct = (row.wall_seconds / baseline_wall[kind_idx] - 1.0) *
                         100.0;
    }
    row.report = result.report;
    const metrics::Report& r = row.report;
    table.Row()
        .Cell(row.mode)
        .Cell(row.scheduler)
        .Cell(row.wall_seconds, 2)
        .Cell(row.events_per_sec, 1)
        .Cell(row.overhead_pct, 1)
        .Cell(r.drift_checks)
        .Cell(r.drift_rules_detected)
        .Cell(r.drift_repairs)
        .Cell(r.drift_rules_abandoned)
        .Cell(r.switches_quarantined)
        .Cell(r.drift_residual_rules)
        .Cell(r.drift_repair_mean, 3)
        .Cell(r.drift_repair_p99, 3);
    rows.push_back(row);
    std::printf("%-9s %-7s %.2fs, %zu detected, %zu repaired, %zu residual\n",
                row.mode.c_str(), row.scheduler.c_str(), row.wall_seconds,
                r.drift_rules_detected, r.drift_repairs,
                r.drift_residual_rules);
  };

  for (std::size_t i = 0; i < kinds.size(); ++i) {
    run_point("recon-off", 0.0, /*recon_on=*/false, i);
  }
  for (const double rate : rates) {
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      run_point(rate == 0.0 ? "honest"
                            : "grey-" + std::to_string(rate).substr(0, 4),
                rate, /*recon_on=*/true, i);
    }
  }
  table.Print();
  bench::MaybeWriteCsv(table, csv_path);
  if (!txt_path.empty()) {
    std::ofstream txt(txt_path);
    txt << table.Render();
    std::printf("txt written: %s\n", txt_path.c_str());
  }

  bool honest_runs_draw_nothing = true;
  bool converged_at_every_rate = true;
  for (const BenchRow& row : rows) {
    if (row.mode == "honest" && row.report.drift_checks != 0) {
      honest_runs_draw_nothing = false;
    }
    if (row.report.drift_residual_rules > row.report.drift_rules_abandoned) {
      converged_at_every_rate = false;
    }
  }

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"bench\": \"reconcile\",\n"
         << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
         << "  \"k\": " << k << ",\n"
         << "  \"background_flows\": " << placed << ",\n"
         << "  \"events\": " << event_count << ",\n"
         << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const BenchRow& row = rows[i];
      const metrics::Report& r = row.report;
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"mode\": \"%s\", \"scheduler\": \"%s\", \"rate\": %.3f, "
          "\"wall_seconds\": %.3f, \"events_per_sec\": %.1f, "
          "\"overhead_pct\": %.1f, \"drift_checks\": %zu, "
          "\"detected\": %zu, \"repaired\": %zu, \"abandoned\": %zu, "
          "\"quarantined\": %zu, \"residual\": %zu, "
          "\"repair_mean\": %.4f, \"repair_p99\": %.4f}%s\n",
          row.mode.c_str(), row.scheduler.c_str(), row.rate,
          row.wall_seconds, row.events_per_sec, row.overhead_pct,
          r.drift_checks, r.drift_rules_detected, r.drift_repairs,
          r.drift_rules_abandoned, r.switches_quarantined,
          r.drift_residual_rules, r.drift_repair_mean, r.drift_repair_p99,
          i + 1 < rows.size() ? "," : "");
      json << buf;
    }
    json << "  ],\n"
         << "  \"acceptance\": {\"honest_runs_draw_nothing\": "
         << (honest_runs_draw_nothing ? "true" : "false")
         << ", \"converged_at_every_rate\": "
         << (converged_at_every_rate ? "true" : "false") << "}\n"
         << "}\n";
    std::printf("json written: %s\n", json_path.c_str());
  }

  bench::PrintFooter(
      "honest runs never arm the reconciler (zero checks, zero overhead "
      "beyond noise); wall time and the drift funnel grow with the grey "
      "rate while residual stays bounded by abandonment — the drain gate "
      "holds convergence at every rate; repair latency tracks the "
      "reconcile period plus straggler delay, not the grey rate");
  // The sweep's own acceptance: a regression here should fail CI loudly.
  if (!honest_runs_draw_nothing || !converged_at_every_rate) {
    std::fprintf(stderr, "acceptance FAILED: honest=%d converged=%d\n",
                 honest_runs_draw_nothing, converged_at_every_rate);
    return 1;
  }
  return 0;
}
