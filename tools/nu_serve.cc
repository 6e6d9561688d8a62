// nu_serve: seeded online-serving campaigns against the brownout controller.
//
// Runs the open-loop arrival stream through the simulator's serve mode and
// writes the SLO timeseries + per-tenant report; sweep mode calibrates the
// fabric's service rate and scans offered load across it. Fixed seeds give
// byte-identical CSVs — CI runs --quick twice and compares.
//
//   nu_serve --quick                    # bounded 2x-overload run + SRLG outage (CI)
//   nu_serve --load=2 --pod-outage      # one calibrated run at 2x capacity
//   nu_serve --sweep=0.5,1,2,3          # offered-load sweep (multiples of capacity)
//   nu_serve --seed=7 --k=8 --duration=120 --process=bursty --out=DIR
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/text.h"
#include "exp/serve.h"

namespace {

using nu::exp::ServeCampaignConfig;

struct CliOptions {
  ServeCampaignConfig campaign;
  std::vector<double> sweep_loads;
  double load = 1.0;
  bool calibrate = true;
  bool quick = false;
  std::string out_dir = ".";
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: nu_serve [--quick] [--load=X | --sweep=X,Y,...]\n"
            << "                [--rate=R] [--no-calibrate] [--seed=S]\n"
            << "                [--k=K] [--duration=D] [--process=NAME]\n"
            << "                [--shards=N] [--shard-threads=T]\n"
            << "                [--grey=MODEL] [--pod-outage] [--out=DIR]\n"
            << "--shards=N (>= 2) serves on the pod-sharded engine; the SLO\n"
            << "timeseries and tenant CSVs are byte-identical to unsharded.\n"
            << "--grey=MODEL serves over a lying dataplane (e.g.\n"
            << "acklie:0.1+loss:0.05:1:4) with the reconciler armed.\n";
  std::exit(2);
}

CliOptions ParseArgs(int argc, char** argv) {
  const nu::Flags flags = nu::Flags::Parse(argc, argv);
  CliOptions cli;
  cli.campaign = nu::exp::DefaultServeCampaign(/*rate=*/1.0);
  nu::exp::ExperimentConfig& experiment = cli.campaign.exp;
  nu::serve::ArrivalConfig& arrivals = cli.campaign.serve.arrivals;
  try {
    cli.quick = flags.GetBool("quick", false);
    cli.load = flags.GetDouble("load", cli.load);
    if (flags.Has("sweep")) {
      const std::string sweep = flags.GetString("sweep", "");
      for (const std::string_view item : nu::Split(sweep, ',')) {
        const std::optional<double> load = nu::ParseReal(item);
        if (!load) Usage("bad value for --sweep: '" + std::string(item) + "'");
        cli.sweep_loads.push_back(*load);
      }
    }
    if (flags.Has("rate")) {
      arrivals.rate = flags.GetDouble("rate", arrivals.rate);
      cli.calibrate = false;
    }
    if (flags.GetBool("no-calibrate", false)) cli.calibrate = false;
    experiment.seed = flags.GetUint("seed", experiment.seed);
    experiment.fat_tree_k = flags.GetUint("k", experiment.fat_tree_k);
    arrivals.duration = flags.GetDouble("duration", arrivals.duration);
    arrivals.process = nu::serve::ParseArrivalProcess(
        flags.GetString("process", nu::serve::ToString(arrivals.process)));
    experiment.sim.shards = flags.GetUint("shards", experiment.sim.shards);
    if (experiment.sim.shards == 1) {
      Usage("--shards needs >= 2 (or 0 for off)");
    }
    experiment.sim.shard_threads =
        flags.GetUint("shard-threads", experiment.sim.shard_threads);
    if (flags.Has("grey")) {
      experiment.sim.faults.grey =
          nu::fault::ParseGreyModel(flags.GetString("grey", ""));
      experiment.sim.recon.enabled = true;
    }
    cli.campaign.pod_outage =
        flags.GetBool("pod-outage", cli.campaign.pod_outage);
    cli.out_dir = flags.GetString("out", cli.out_dir);
  } catch (const nu::CorruptInput& e) {
    Usage(e.what());
  } catch (const nu::fault::FaultPlanError& e) {
    Usage("bad value for --grey: " + std::string(e.what()));
  }
  for (const std::string& name : flags.UnqueriedFlags()) {
    Usage("unknown flag '--" + name + "'");
  }
  if (!flags.positionals().empty()) {
    Usage("unexpected argument '" + flags.positionals().front() + "'");
  }
  if (cli.quick) {
    // Bounded CI shape: small fabric, short stream, 2x overload with a
    // mid-run pod outage — the acceptance scenario in miniature.
    experiment.fat_tree_k = 4;
    arrivals.duration = 30.0;
    cli.campaign.pod_outage = true;
    cli.campaign.pod_outage_time = 8.0;
    cli.campaign.pod_outage_duration = 6.0;
    cli.load = 2.0;
  }
  return cli;
}

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(2);
  }
  out << text;
}

void PrintSummary(const nu::sim::SimResult& result) {
  const nu::serve::ServeSummary& s = result.serve;
  std::cout << "arrivals:          " << s.arrivals << "\n"
            << "admitted:          " << s.admitted << "\n"
            << "completed:         " << s.completed << "\n"
            << "rejected (budget/deadline/priority): " << s.rejected_budget
            << "/" << s.rejected_deadline << "/" << s.rejected_priority
            << "\n"
            << "shed from queue:   " << s.shed_queue << "\n"
            << "quarantined:       " << s.quarantined << "\n"
            << "slo misses:        " << s.slo_misses << "\n"
            << "ect p50/p99/p999:  " << s.ect_p50 << " / " << s.ect_p99
            << " / " << s.ect_p999 << "\n"
            << "jain ect/admission: " << s.jain_ect << " / "
            << s.jain_admission << "\n"
            << "brownout transitions: " << s.transitions
            << " (final " << nu::serve::ToString(s.final_state)
            << ", reached shedding: " << (s.reached_shedding ? "yes" : "no")
            << ", recovered healthy: " << (s.recovered_healthy ? "yes" : "no")
            << ")\n"
            << "auditor violations: " << result.violations.size() << "\n";
  const nu::metrics::Report& r = result.report;
  if (r.drift_checks > 0 || r.grey_ack_lies > 0 || r.grey_stragglers > 0 ||
      r.grey_rules_lost > 0) {
    std::cout << "drift: passes=" << r.drift_checks
              << " detected=" << r.drift_rules_detected
              << " repaired=" << r.drift_repairs
              << " abandoned=" << r.drift_rules_abandoned
              << " quarantined=" << r.switches_quarantined
              << " residual=" << r.drift_residual_rules << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = ParseArgs(argc, argv);
  namespace fs = std::filesystem;
  fs::create_directories(cli.out_dir);

  if (!cli.sweep_loads.empty()) {
    std::cout << "serve sweep: loads={";
    for (std::size_t i = 0; i < cli.sweep_loads.size(); ++i) {
      std::cout << (i > 0 ? "," : "") << cli.sweep_loads[i];
    }
    std::cout << "} seed=" << cli.campaign.exp.seed
              << " k=" << cli.campaign.exp.fat_tree_k << "\n";
    const std::vector<nu::exp::ServeSweepPoint> points =
        nu::exp::RunServeSweep(cli.campaign, cli.sweep_loads, cli.calibrate);
    const std::string csv = nu::exp::ServeSweepCsv(points);
    WriteFile(fs::path(cli.out_dir) / "serve_sweep.csv", csv);
    std::cout << csv;
    return 0;
  }

  ServeCampaignConfig campaign = cli.campaign;
  if (cli.calibrate) {
    const double rate = nu::exp::EstimateServiceRate(campaign);
    std::cout << "calibrated service rate: " << rate << " events/s\n";
    campaign.serve.arrivals.rate = rate;
  }
  campaign.offered_load = cli.load;
  std::cout << "serve run: load=" << cli.load
            << " rate=" << campaign.serve.arrivals.rate * cli.load
            << " seed=" << campaign.exp.seed
            << " k=" << campaign.exp.fat_tree_k << " process="
            << nu::serve::ToString(campaign.serve.arrivals.process)
            << (campaign.pod_outage ? " pod-outage" : "");
  if (campaign.exp.sim.shards >= 2) {
    std::cout << " shards=" << campaign.exp.sim.shards;
  }
  if (campaign.exp.sim.faults.grey.enabled()) {
    std::cout << " grey="
              << nu::fault::FormatGreyModel(campaign.exp.sim.faults.grey);
  }
  std::cout << "\n";

  const nu::sim::SimResult result = nu::exp::RunServeCampaign(campaign);
  PrintSummary(result);
  WriteFile(fs::path(cli.out_dir) / "serve_timeseries.csv",
            result.serve_timeseries_csv);
  WriteFile(fs::path(cli.out_dir) / "serve_tenants.csv",
            result.serve_tenant_csv);
  std::cout << "wrote " << (fs::path(cli.out_dir) / "serve_timeseries.csv")
            << " and " << (fs::path(cli.out_dir) / "serve_tenants.csv")
            << "\n";
  return 0;
}
