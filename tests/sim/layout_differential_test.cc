// Differential oracle for the hot-state memory layout overhaul: fixed-seed
// workloads (random traces x fault injection x all three schedulers, with
// background churn and the guard subsystem on) must keep producing records
// CSVs byte-identical to the checked-in goldens, which were generated by the
// legacy layout (unordered_map flow table and placements, deep topo::Path
// copies per flow, unsorted link-flow lists) before the dense-store/path-
// interning rewrite. Report CSVs must match the goldens byte for byte.
//
// Regenerate (only for an intentional behavior change):
//   NU_REGEN_LAYOUT_GOLDENS=1 build/tests/test_sim
//       --gtest_filter='*LayoutDifferential*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "metrics/export.h"
#include "topo/fat_tree.h"

namespace nu::sim {
namespace {

namespace fs = std::filesystem;

/// Seeds of the random traces the oracle pins (workload + churn + fault
/// jitter streams all derive from them).
constexpr std::uint64_t kTraceSeeds[] = {9001, 9002};

const sched::SchedulerKind kSchedulers[] = {sched::SchedulerKind::kFifo,
                                            sched::SchedulerKind::kLmtf,
                                            sched::SchedulerKind::kPlmtf};

fs::path GoldenDir() { return fs::path(__FILE__).parent_path() / "golden"; }

bool RegenRequested() {
  const char* env = std::getenv("NU_REGEN_LAYOUT_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Faults + guard + churn on — the gnarliest configuration the acceptance
/// criteria name, so the goldens cover deferred flows, rollbacks, watchdog
/// requeues, churn departures, and auditor passes.
exp::ExperimentConfig OracleConfig(std::uint64_t seed) {
  exp::ExperimentConfig config;
  config.fat_tree_k = 4;
  config.utilization = 0.6;
  config.event_count = 6;
  config.min_flows_per_event = 4;
  config.max_flows_per_event = 12;
  config.alpha = 4;
  config.background_churn = true;
  config.seed = seed;

  // A link outage mid-run plus flaky installs: the fault link is a host
  // uplink, chosen via a throwaway Fat-Tree (link ids depend only on k).
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  config.sim.faults.plan.AddLinkOutage(
      0.8, 2.0, ft.graph().OutLinks(ft.host(0))[0]);
  config.sim.faults.flaky.failure_probability = 0.15;
  config.sim.faults.flaky.latency_jitter_frac = 0.1;
  config.sim.faults.retry.max_attempts = 3;
  config.sim.faults.retry.base_delay = 0.05;

  config.sim.guard.overload.max_queue_length = 8;
  config.sim.guard.deadline.base_deadline = 6.0;
  config.sim.guard.deadline.per_flow_deadline = 1.0;
  config.sim.guard.deadline.requeue_backoff = 0.5;
  config.sim.guard.deadline.max_failures = 3;
  config.sim.guard.auditor.enabled = true;
  config.sim.guard.auditor.cadence = 4;
  return config;
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

std::string GoldenName(std::uint64_t seed, sched::SchedulerKind kind,
                       const char* what) {
  return "layout_" + std::to_string(seed) + "_" +
         std::string(sched::ToString(kind)) + "_" + what + ".csv";
}

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden: " << path
                            << " (regenerate with NU_REGEN_LAYOUT_GOLDENS=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  out << contents;
}

TEST(LayoutDifferentialTest, MatchesLegacyLayoutGoldens) {
  const bool regen = RegenRequested();
  if (regen) fs::create_directories(GoldenDir());

  for (const std::uint64_t seed : kTraceSeeds) {
    const exp::Workload workload(OracleConfig(seed));
    for (const sched::SchedulerKind kind : kSchedulers) {
      const SimResult result = exp::RunScheduler(workload, kind);
      const std::string records = RecordsCsv(result);
      const std::string report = ReportCsv(result);
      const fs::path records_path =
          GoldenDir() / GoldenName(seed, kind, "records");
      const fs::path report_path =
          GoldenDir() / GoldenName(seed, kind, "report");
      if (regen) {
        WriteFile(records_path, records);
        WriteFile(report_path, report);
        continue;
      }
      const std::string tag = std::to_string(seed) + "/" +
                              std::string(sched::ToString(kind));
      EXPECT_EQ(records, ReadFileOrDie(records_path)) << tag;
      EXPECT_EQ(report, ReadFileOrDie(report_path)) << tag;
    }
  }
  if (regen) GTEST_SKIP() << "goldens regenerated into " << GoldenDir();
}

}  // namespace
}  // namespace nu::sim
