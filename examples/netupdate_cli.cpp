// netupdate_cli — run any experiment the library supports from the command
// line and print the paper's five metrics per scheduler, optionally as CSV.
//
//   ./netupdate_cli --events=30 --utilization=0.7 --alpha=4
//       --schedulers=fifo,lmtf,p-lmtf --flow-level --trials=3 --csv
//
// Flags (defaults in brackets):
//   --topology=fat-tree|leaf-spine [fat-tree]   --k=8       fat-tree pods
//   --utilization=0.7    target fabric utilization
//   --events=20          queued update events
//   --min-flows=10 --max-flows=100               flows per event
//   --alpha=4            LMTF/P-LMTF sample size
//   --trials=1           workload seeds averaged
//   --seed=1             base seed
//   --schedulers=...     comma list of fifo,reorder,lmtf,p-lmtf [all]
//   --flow-level         include the flow-level baseline
//   --static-background  disable background churn (Fig. 7 setting)
//   --quick-probes       estimate-based LMTF cost probes (~10x cheaper)
//   --trace=yahoo-like|benson|uniform [yahoo-like]
//   --csv                emit CSV instead of an ASCII table
//
// Checkpointing (single scheduler, single trial — see docs/model.md §11):
//   --checkpoint-dir=DIR      write snapshots + journals into DIR
//   --checkpoint-cadence=N    snapshot every N scheduling rounds [1]
//   --crash-at-round=N        inject a controller crash at round N (demo)
//   --resume                  recover from DIR and finish the crashed run
#include <cstdio>
#include <iostream>

#include "common/csv.h"
#include "common/flags.h"
#include "common/table.h"
#include "common/text.h"
#include "exp/runner.h"

using namespace nu;

namespace {

exp::TraceFamily ParseTrace(const std::string& name) {
  if (name == "yahoo-like") return exp::TraceFamily::kYahooLike;
  if (name == "benson") return exp::TraceFamily::kBenson;
  if (name == "uniform") return exp::TraceFamily::kUniform;
  std::fprintf(stderr, "unknown trace family: %s\n", name.c_str());
  std::exit(2);
}

int Run(const Flags& flags) {
  if (flags.Has("help")) {
    std::printf("see the header comment of examples/netupdate_cli.cpp\n");
    return 0;
  }

  exp::ExperimentConfig config;
  const std::string topology = flags.GetString("topology", "fat-tree");
  if (topology == "leaf-spine") {
    config.topology = exp::TopologyKind::kLeafSpine;
  } else if (topology != "fat-tree") {
    std::fprintf(stderr, "unknown topology: %s\n", topology.c_str());
    return 2;
  }
  config.fat_tree_k = flags.GetUint("k", 8);
  config.utilization = flags.GetDouble("utilization", 0.7);
  config.event_count = flags.GetUint("events", 20);
  config.min_flows_per_event = flags.GetUint("min-flows", 10);
  config.max_flows_per_event = flags.GetUint("max-flows", 100);
  config.alpha = flags.GetUint("alpha", 4);
  config.seed = flags.GetUint("seed", 1);
  config.background_trace = ParseTrace(flags.GetString("trace", "yahoo-like"));
  config.background_churn = !flags.GetBool("static-background", false);
  config.sim.quick_cost_probes = flags.GetBool("quick-probes", false);
  const std::size_t trials = flags.GetUint("trials", 1);
  const bool include_flow_level = flags.GetBool("flow-level", false);
  const bool as_csv = flags.GetBool("csv", false);

  std::vector<sched::SchedulerKind> kinds;
  const std::string schedulers =
      flags.GetString("schedulers", "fifo,reorder,lmtf,p-lmtf");
  for (const std::string_view name : Split(schedulers, ',')) {
    if (!name.empty()) {
      kinds.push_back(sched::ParseSchedulerKind(std::string(name)));
    }
  }

  ckpt::CheckpointConfig checkpoint;
  checkpoint.dir = flags.GetString("checkpoint-dir", "");
  checkpoint.cadence = flags.GetUint("checkpoint-cadence", 1);
  config.sim.faults.crash.at_round = flags.GetUint("crash-at-round", 0);
  const bool resume = flags.GetBool("resume", false);

  const auto unknown = flags.UnqueriedFlags();
  if (!unknown.empty()) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
    }
    return 2;
  }

  // Checkpointing runs one scheduler on one workload: recovery is defined
  // against a single deterministic run, not an averaged comparison.
  if (checkpoint.enabled() || resume) {
    if (!checkpoint.enabled()) {
      std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
      return 2;
    }
    if (kinds.size() != 1 || trials != 1) {
      std::fprintf(stderr,
                   "--checkpoint-dir requires exactly one --schedulers entry "
                   "and --trials=1\n");
      return 2;
    }
    const exp::Workload workload(config);
    sim::SimResult run;
    try {
      run = exp::RunSchedulerCheckpointed(workload, kinds[0], checkpoint,
                                          resume);
    } catch (const fault::ControllerCrash& crash) {
      std::fprintf(stderr, "%s; rerun with --resume to recover\n",
                   crash.what());
      return 3;
    } catch (const sim::RecoveryError& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 4;
    }
    const metrics::Report& r = run.report;
    std::printf("%s: avg_ect=%.3f tail_ect=%.3f makespan=%.3f rounds=%zu\n",
                sched::ToString(kinds[0]), r.avg_ect, r.tail_ect, r.makespan,
                run.rounds);
    std::printf("checkpoint: snapshots=%zu wal_records=%zu snapshot_mb=%.2f\n",
                r.ckpt_snapshots, r.ckpt_wal_records,
                r.ckpt_snapshot_bytes / 1e6);
    if (run.recovery.recovered) {
      std::printf(
          "recovery: snapshot_round=%llu replayed=%llu torn_bytes=%llu "
          "snapshots_skipped=%llu wall_s=%.3f\n",
          static_cast<unsigned long long>(run.recovery.snapshot_round),
          static_cast<unsigned long long>(run.recovery.wal_records_replayed),
          static_cast<unsigned long long>(run.recovery.torn_bytes_truncated),
          static_cast<unsigned long long>(run.recovery.snapshots_skipped),
          run.recovery.recovery_wall_seconds);
    }
    return 0;
  }

  const exp::ComparisonResult result =
      exp::CompareSchedulers(config, kinds, include_flow_level, trials);

  const std::vector<std::string> headers{
      "scheduler",        "avg_ect_s",  "tail_ect_s", "total_cost_mbps",
      "plan_time_s",      "avg_qdelay_s", "worst_qdelay_s", "makespan_s"};
  if (as_csv) {
    CsvWriter writer(std::cout);
    writer.WriteRow(headers);
    for (const auto& [name, r] : result.mean_by_name) {
      writer.WriteRow({name, FormatDouble(r.avg_ect, 3),
                       FormatDouble(r.tail_ect, 3),
                       FormatDouble(r.total_cost, 1),
                       FormatDouble(r.total_plan_time, 3),
                       FormatDouble(r.avg_queuing_delay, 3),
                       FormatDouble(r.worst_queuing_delay, 3),
                       FormatDouble(r.makespan, 3)});
    }
    return 0;
  }

  std::printf("%s k=%zu util=%.2f events=%zu flows=[%zu,%zu] alpha=%zu "
              "trials=%zu churn=%s trace=%s\n\n",
              exp::ToString(config.topology), config.fat_tree_k,
              config.utilization, config.event_count,
              config.min_flows_per_event, config.max_flows_per_event,
              config.alpha, trials, config.background_churn ? "on" : "off",
              exp::ToString(config.background_trace));
  AsciiTable table(headers);
  for (const auto& [name, r] : result.mean_by_name) {
    table.Row()
        .Cell(name)
        .Cell(r.avg_ect, 2)
        .Cell(r.tail_ect, 2)
        .Cell(r.total_cost, 0)
        .Cell(r.total_plan_time, 2)
        .Cell(r.avg_queuing_delay, 2)
        .Cell(r.worst_queuing_delay, 2)
        .Cell(r.makespan, 2);
  }
  table.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed flag value or scheduler name is a usage error, like an
  // unknown flag.
  try {
    return Run(Flags::Parse(argc, argv));
  } catch (const CorruptInput& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
