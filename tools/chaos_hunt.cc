// chaos_hunt: deterministic chaos campaigns against the simulator.
//
// Campaign mode sweeps randomized scenario x scheduler x fault-plan trials,
// judging each against the oracles (auditor violations, deadline misses,
// drift residue, report-CSV nondeterminism); every failure is shrunk ddmin-style and
// written as a repro artifact that --replay reruns exactly.
//
//   chaos_hunt --quick                 # small bounded campaign (CI)
//   chaos_hunt --trials=32 --seed=7    # a bigger hunt
//   chaos_hunt --inject-bug --out=DIR  # plant a defect, watch it shrink
//   chaos_hunt --replay=artifact.txt   # rerun a repro artifact
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "common/text.h"
#include "exp/chaos.h"
#include "metrics/export.h"

namespace {

using nu::exp::ChaosOptions;

struct CliOptions {
  ChaosOptions chaos;
  std::string replay_path;
  std::string out_dir = ".";
  bool quick = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: chaos_hunt [--quick] [--trials=N] [--seed=S]\n"
            << "                  [--k=K] [--events=N] [--inject-bug]\n"
            << "                  [--serve=LOAD] [--serve-rate=R]\n"
            << "                  [--shards=N] [--shard-threads=T]\n"
            << "                  [--grey=MODEL] [--no-determinism]\n"
            << "                  [--out=DIR] [--replay=ARTIFACT]\n"
            << "--serve runs online-serving trials at LOAD x the base rate\n"
            << "(deadline-miss oracle armed; --events = stream seconds).\n"
            << "--shards=N (>= 2) runs every trial on the pod-sharded engine.\n"
            << "--grey=MODEL pins a grey-failure model on every trial, e.g.\n"
            << "acklie:0.1+loss:0.05:1:4 (reconciler + drift oracle armed;\n"
            << "without it roughly a third of trials roll their own model).\n";
  std::exit(2);
}

CliOptions ParseArgs(int argc, char** argv) {
  const nu::Flags flags = nu::Flags::Parse(argc, argv);
  CliOptions cli;
  ChaosOptions& chaos = cli.chaos;
  try {
    cli.quick = flags.GetBool("quick", false);
    chaos.trials = flags.GetUint("trials", chaos.trials);
    chaos.seed = flags.GetUint("seed", chaos.seed);
    chaos.fat_tree_k = flags.GetUint("k", chaos.fat_tree_k);
    chaos.event_count = flags.GetUint("events", chaos.event_count);
    chaos.inject_bug = flags.GetBool("inject-bug", false);
    if (flags.Has("serve")) {
      chaos.serve_load = flags.GetDouble("serve", 0.0);
      if (chaos.serve_load <= 0.0) Usage("--serve needs a load > 0");
    }
    chaos.serve_rate = flags.GetDouble("serve-rate", chaos.serve_rate);
    chaos.shards = flags.GetUint("shards", chaos.shards);
    if (chaos.shards == 1) Usage("--shards needs >= 2 (or 0 for off)");
    chaos.shard_threads = flags.GetUint("shard-threads", chaos.shard_threads);
    chaos.grey = nu::fault::ParseGreyModel(flags.GetString("grey", ""));
    chaos.check_determinism = !flags.GetBool("no-determinism", false);
    cli.out_dir = flags.GetString("out", cli.out_dir);
    cli.replay_path = flags.GetString("replay", "");
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
    // Bounded CI shape: small fabric, short traces, few trials.
    chaos.trials = 3;
    chaos.fat_tree_k = 4;
    chaos.event_count = 4;
    chaos.max_shrink_runs = 24;
  }
  return cli;
}

int Replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::cerr << "error: cannot open artifact '" << path << "'\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  nu::exp::ChaosScenario scenario;
  try {
    scenario = nu::exp::ParseArtifact(buf.str());
  } catch (const nu::exp::ChaosError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  // Replay is exact by construction: the artifact pins every input, and the
  // re-serialized scenario must be byte-identical to what was loaded.
  const std::string reserialized = nu::exp::SerializeArtifact(scenario);
  if (reserialized != buf.str()) {
    std::cerr << "error: artifact does not round-trip byte-identically\n";
    return 1;
  }
  ChaosOptions options;
  options.inject_bug = true;  // replay judges every oracle, planted one too
  const nu::exp::ChaosVerdict verdict =
      nu::exp::JudgeScenario(scenario, options);
  const nu::sim::SimResult result = nu::exp::RunScenario(scenario);
  std::cout << "replayed " << path << "\n"
            << "verdict: " << (verdict.failed ? "FAIL" : "pass");
  if (verdict.failed) std::cout << " [" << verdict.oracle << "]";
  std::cout << "\n";
  if (!verdict.detail.empty()) std::cout << "detail: " << verdict.detail
                                         << "\n";
  nu::metrics::WriteReportCsv(std::cout, result.report);
  return verdict.failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = ParseArgs(argc, argv);
  if (!cli.replay_path.empty()) return Replay(cli.replay_path);

  std::cout << "chaos campaign: trials=" << cli.chaos.trials
            << " seed=" << cli.chaos.seed << " k=" << cli.chaos.fat_tree_k
            << " events=" << cli.chaos.event_count
            << (cli.chaos.inject_bug ? " inject-bug" : "")
            << (cli.chaos.check_determinism ? "" : " no-determinism");
  if (cli.chaos.serve_load > 0.0) {
    std::cout << " serve-load=" << cli.chaos.serve_load
              << " serve-rate=" << cli.chaos.serve_rate;
  }
  if (cli.chaos.shards >= 2) {
    std::cout << " shards=" << cli.chaos.shards;
    if (cli.chaos.shard_threads > 0) {
      std::cout << " shard-threads=" << cli.chaos.shard_threads;
    }
  }
  if (cli.chaos.grey.enabled()) {
    std::cout << " grey=" << nu::fault::FormatGreyModel(cli.chaos.grey);
  }
  std::cout << "\n";
  const nu::exp::ChaosCampaignResult result =
      nu::exp::RunChaosCampaign(cli.chaos);
  std::cout << "trials run: " << result.trials_run << "\n"
            << "failures:   " << result.failures.size() << "\n";

  namespace fs = std::filesystem;
  int exit_code = 0;
  for (const nu::exp::ChaosFailure& failure : result.failures) {
    const fs::path path =
        fs::path(cli.out_dir) /
        ("chaos_repro_trial" + std::to_string(failure.trial) + ".txt");
    std::ofstream out(path, std::ios::binary);
    if (!out.is_open()) {
      std::cerr << "error: cannot write " << path << "\n";
      return 2;
    }
    out << failure.artifact;
    std::cout << "trial " << failure.trial << ": [" << failure.verdict.oracle
              << "] " << failure.verdict.detail << "\n"
              << "  shrunk to " << failure.scenario.plan.size()
              << " fault events in " << failure.shrink_runs
              << " oracle runs -> " << path.string() << "\n";
    // A planted defect is the shrinker's self-test, not a product bug.
    if (failure.verdict.oracle != "injected-bug") exit_code = 1;
  }
  return exit_code;
}
