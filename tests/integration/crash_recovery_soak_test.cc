// Crash-recovery soak: generated workloads (churn on, flaky installs,
// auditor verifying invariants after every occurrence batch) crashed at
// several rounds and both crash points, across seeds and schedulers. Every
// recovery must reproduce the uninterrupted run's records byte-for-byte
// with a clean audit — the determinism oracle at workload scale, including
// the churn-generator fast-forward path that unit fixtures don't reach.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "exp/runner.h"
#include "metrics/export.h"
#include "sim/simulator.h"

namespace nu::exp {
namespace {

namespace fs = std::filesystem;

ExperimentConfig SoakConfig(std::uint64_t seed) {
  ExperimentConfig config;
  config.fat_tree_k = 4;
  config.utilization = 0.7;
  config.event_count = 10;
  config.min_flows_per_event = 4;
  config.max_flows_per_event = 15;
  config.alpha = 4;
  config.seed = seed;
  config.background_churn = true;
  config.sim.faults.flaky.failure_probability = 0.2;
  config.sim.faults.flaky.latency_jitter_frac = 0.15;
  config.sim.faults.retry.max_attempts = 3;
  config.sim.faults.retry.base_delay = 0.02;
  config.sim.guard.auditor.enabled = true;
  config.sim.guard.auditor.cadence = 1;
  return config;
}

/// RunScheduler's wiring (seed derivation + churn factory), but on a
/// caller-owned Simulator so the soak can Resume after a crash.
sim::Simulator MakeSimulator(const Workload& workload,
                             const sim::SimConfig& sim_config) {
  sim::SimConfig config = sim_config;
  config.seed = workload.config().seed ^ 0x5eedULL;
  config.churn.enabled = workload.config().background_churn;
  config.churn.placement = workload.background_options();
  sim::Simulator simulator(workload.network(), workload.paths(), config);
  if (config.churn.enabled) {
    simulator.SetChurnFactory([&workload](std::uint64_t seed) {
      return MakeTrafficGenerator(workload.config().background_trace,
                                  workload.hosts(), Rng(seed));
    });
  }
  return simulator;
}

std::string RecordsCsv(const sim::SimResult& result) {
  std::ostringstream out;
  metrics::WriteRecordsCsv(out, result.records);
  return out.str();
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("nu_ckpt_soak_" + tag)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

struct SoakCase {
  std::uint64_t seed;
  sched::SchedulerKind kind;
};

class CrashRecoverySoakTest : public ::testing::TestWithParam<SoakCase> {};

TEST_P(CrashRecoverySoakTest, RandomCrashesRecoverBitIdentical) {
  const auto [seed, kind] = GetParam();
  const Workload workload(SoakConfig(seed));
  const std::string tag =
      std::to_string(seed) + "_" + sched::ToString(kind);

  // Uninterrupted checkpointed reference.
  TempDir ref_dir("ref_" + tag);
  sim::SimConfig sim_config = workload.config().sim;
  sim_config.checkpoint.dir = ref_dir.str();
  sim_config.checkpoint.cadence = 2;
  const auto scheduler = sched::MakeScheduler(
      kind, sched::LmtfConfig{.alpha = workload.config().alpha});
  sim::Simulator reference_sim = MakeSimulator(workload, sim_config);
  const sim::SimResult reference =
      reference_sim.Run(*scheduler, workload.events());
  ASSERT_GE(reference.rounds, 3u);
  EXPECT_EQ(reference.report.audit_violations, 0u);
  const std::string want = RecordsCsv(reference);

  // Crash at an early, a middle, and the final round, alternating points.
  const std::size_t crash_rounds[] = {1, reference.rounds / 2,
                                      reference.rounds};
  fault::CrashPoint point = fault::CrashPoint::kBeforeRound;
  for (const std::size_t crash_round : crash_rounds) {
    if (crash_round == 0) continue;
    const std::string case_tag = tag + "_r" + std::to_string(crash_round);
    TempDir dir(case_tag);
    sim::SimConfig crash_config = sim_config;
    crash_config.checkpoint.dir = dir.str();
    crash_config.faults.crash.at_round = crash_round;
    crash_config.faults.crash.point = point;
    point = point == fault::CrashPoint::kBeforeRound
                ? fault::CrashPoint::kMidRound
                : fault::CrashPoint::kBeforeRound;

    {
      sim::Simulator sim = MakeSimulator(workload, crash_config);
      const auto crashed_sched = sched::MakeScheduler(
          kind, sched::LmtfConfig{.alpha = workload.config().alpha});
      EXPECT_THROW((void)sim.Run(*crashed_sched, workload.events()),
                   fault::ControllerCrash)
          << case_tag;
    }
    sim::Simulator sim = MakeSimulator(workload, crash_config);
    const auto resumed_sched = sched::MakeScheduler(
        kind, sched::LmtfConfig{.alpha = workload.config().alpha});
    const sim::SimResult recovered =
        sim.Resume(*resumed_sched, workload.events());
    EXPECT_TRUE(recovered.recovery.recovered) << case_tag;
    EXPECT_EQ(RecordsCsv(recovered), want) << case_tag;
    EXPECT_EQ(recovered.report.audit_violations, 0u) << case_tag;
    EXPECT_EQ(recovered.rounds, reference.rounds) << case_tag;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSchedulers, CrashRecoverySoakTest,
    ::testing::Values(SoakCase{101, sched::SchedulerKind::kFifo},
                      SoakCase{211, sched::SchedulerKind::kLmtf},
                      SoakCase{307, sched::SchedulerKind::kPlmtf}),
    [](const ::testing::TestParamInfo<SoakCase>& param) {
      std::string name = "seed" + std::to_string(param.param.seed) + "_" +
                         sched::ToString(param.param.kind);
      for (char& c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace nu::exp
