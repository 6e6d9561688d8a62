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
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

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

std::uint64_t ParseCount(const std::string& flag, const std::string& value) {
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    Usage("bad value for " + flag + ": '" + value + "'");
  }
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (flag == "--quick") {
      cli.quick = true;
    } else if (flag == "--trials") {
      cli.chaos.trials = ParseCount(flag, value);
    } else if (flag == "--seed") {
      cli.chaos.seed = ParseCount(flag, value);
    } else if (flag == "--k") {
      cli.chaos.fat_tree_k = ParseCount(flag, value);
    } else if (flag == "--events") {
      cli.chaos.event_count = ParseCount(flag, value);
    } else if (flag == "--inject-bug") {
      cli.chaos.inject_bug = true;
    } else if (flag == "--serve") {
      try {
        cli.chaos.serve_load = std::stod(value);
      } catch (const std::exception&) {
        Usage("bad value for --serve: '" + value + "'");
      }
      if (cli.chaos.serve_load <= 0.0) Usage("--serve needs a load > 0");
    } else if (flag == "--serve-rate") {
      try {
        cli.chaos.serve_rate = std::stod(value);
      } catch (const std::exception&) {
        Usage("bad value for --serve-rate: '" + value + "'");
      }
    } else if (flag == "--shards") {
      cli.chaos.shards = ParseCount(flag, value);
      if (cli.chaos.shards == 1) Usage("--shards needs >= 2 (or 0 for off)");
    } else if (flag == "--shard-threads") {
      cli.chaos.shard_threads = ParseCount(flag, value);
    } else if (flag == "--grey") {
      try {
        cli.chaos.grey = nu::fault::ParseGreyModel(value).Validate();
      } catch (const nu::fault::FaultPlanError& e) {
        Usage("bad value for --grey: " + std::string(e.what()));
      }
    } else if (flag == "--no-determinism") {
      cli.chaos.check_determinism = false;
    } else if (flag == "--out") {
      cli.out_dir = value;
    } else if (flag == "--replay") {
      cli.replay_path = value;
    } else {
      Usage("unknown flag '" + arg + "'");
    }
  }
  if (cli.quick) {
    // Bounded CI shape: small fabric, short traces, few trials.
    cli.chaos.trials = 3;
    cli.chaos.fat_tree_k = 4;
    cli.chaos.event_count = 4;
    cli.chaos.max_shrink_runs = 24;
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
  const nu::exp::ChaosScenario scenario = nu::exp::ParseArtifact(buf.str());
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
