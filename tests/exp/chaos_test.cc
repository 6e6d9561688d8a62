// Chaos campaigns: deterministic scenario generation, byte-identical
// replays across all three schedulers, ddmin shrinking of an injected bug
// down to a handful of fault events, and exact round-trips of the repro
// artifact format.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/chaos.h"
#include "metrics/export.h"

namespace nu::exp {
namespace {

std::string ReportCsv(const sim::SimResult& result) {
  std::ostringstream out;
  metrics::WriteReportCsv(out, result.report);
  return out.str();
}

ChaosOptions QuickOptions() {
  ChaosOptions options;
  options.seed = 11;
  options.trials = 3;
  options.fat_tree_k = 4;
  options.event_count = 4;
  options.check_determinism = false;  // individual tests opt back in
  options.max_shrink_runs = 24;
  return options;
}

TEST(ChaosTest, TrialScenariosAreDeterministic) {
  const ChaosOptions options = QuickOptions();
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    const ChaosScenario a = MakeTrialScenario(options, trial);
    const ChaosScenario b = MakeTrialScenario(options, trial);
    EXPECT_EQ(a, b) << "trial " << trial;
    EXPECT_EQ(SerializeArtifact(a), SerializeArtifact(b));
  }
  // Distinct trials draw distinct seeds (scenario generation actually
  // advances with the trial index).
  EXPECT_NE(MakeTrialScenario(options, 0).seed,
            MakeTrialScenario(options, 1).seed);
}

TEST(ChaosTest, ScenarioRunsAreByteIdenticalForEveryScheduler) {
  const std::array<sched::SchedulerKind, 3> kinds = {
      sched::SchedulerKind::kFifo, sched::SchedulerKind::kLmtf,
      sched::SchedulerKind::kPlmtf};
  ChaosScenario scenario = MakeTrialScenario(QuickOptions(), 1);
  for (sched::SchedulerKind kind : kinds) {
    scenario.scheduler = kind;
    const std::string first = ReportCsv(RunScenario(scenario));
    const std::string second = ReportCsv(RunScenario(scenario));
    EXPECT_EQ(first, second)
        << "nondeterministic under " << sched::ToString(kind);
  }
}

TEST(ChaosTest, CleanCampaignReportsNoFailures) {
  ChaosOptions options = QuickOptions();
  options.check_determinism = true;
  const ChaosCampaignResult result = RunChaosCampaign(options);
  EXPECT_EQ(result.trials_run, options.trials);
  EXPECT_TRUE(result.failures.empty());
}

TEST(ChaosTest, InjectedBugShrinksToAHandfulOfFaultEvents) {
  ChaosOptions options = QuickOptions();
  options.trials = 6;
  options.inject_bug = true;
  const ChaosCampaignResult result = RunChaosCampaign(options);
  ASSERT_FALSE(result.failures.empty());
  for (const ChaosFailure& failure : result.failures) {
    EXPECT_EQ(failure.verdict.oracle, "injected-bug");
    EXPECT_LE(failure.scenario.plan.size(), 3u)
        << "trial " << failure.trial << " did not shrink:\n"
        << failure.artifact;
    EXPECT_LE(failure.shrink_runs, options.max_shrink_runs);
    // The artifact is the minimized scenario, verbatim.
    EXPECT_EQ(failure.artifact, SerializeArtifact(failure.scenario));
    // Replaying the artifact reproduces the same verdict.
    const ChaosScenario replayed = ParseArtifact(failure.artifact);
    EXPECT_EQ(replayed, failure.scenario);
    const ChaosVerdict verdict = JudgeScenario(replayed, options);
    EXPECT_TRUE(verdict.failed);
    EXPECT_EQ(verdict.oracle, failure.verdict.oracle);
  }
}

TEST(ChaosTest, ShrinkKeepsTheFailingOracle) {
  ChaosOptions options = QuickOptions();
  options.inject_bug = true;
  // Find a failing trial first.
  std::size_t failing_trial = options.trials;
  for (std::size_t trial = 0; trial < 6; ++trial) {
    const ChaosScenario scenario = MakeTrialScenario(options, trial);
    if (JudgeScenario(scenario, options).failed) {
      failing_trial = trial;
      break;
    }
  }
  ASSERT_LT(failing_trial, 6u) << "no trial tripped the injected bug";
  const ChaosScenario failing = MakeTrialScenario(options, failing_trial);
  std::size_t runs = 0;
  const ChaosScenario shrunk = ShrinkScenario(failing, options, &runs);
  EXPECT_GT(runs, 0u);
  EXPECT_LE(shrunk.plan.size(), failing.plan.size());
  EXPECT_LE(shrunk.event_count, failing.event_count);
  const ChaosVerdict verdict = JudgeScenario(shrunk, options);
  EXPECT_TRUE(verdict.failed);
  EXPECT_EQ(verdict.oracle, "injected-bug");
}

TEST(ChaosTest, ArtifactRoundTripsExactly) {
  for (std::size_t trial = 0; trial < 3; ++trial) {
    const ChaosScenario scenario = MakeTrialScenario(QuickOptions(), trial);
    const std::string text = SerializeArtifact(scenario);
    const ChaosScenario parsed = ParseArtifact(text);
    EXPECT_EQ(parsed, scenario) << "trial " << trial;
    // Fixed point: serialize(parse(text)) == text.
    EXPECT_EQ(SerializeArtifact(parsed), text);
  }
}

TEST(ChaosTest, GreyScenariosRoundTripAndRunConverged) {
  // Pinning --grey= forces the model onto every trial; the artifact must
  // carry it and replay it, and the drift-convergence oracle must hold.
  ChaosOptions options = QuickOptions();
  options.grey = fault::ParseGreyModel("acklie:0.2+loss:0.1:0.5:2");
  const ChaosScenario scenario = MakeTrialScenario(options, 0);
  EXPECT_EQ(fault::FormatGreyModel(scenario.grey),
            fault::FormatGreyModel(options.grey));

  const std::string text = SerializeArtifact(scenario);
  EXPECT_NE(text.find("\ngrey acklie:0.2+loss:0.1:0.5:2\n"),
            std::string::npos);
  const ChaosScenario parsed = ParseArtifact(text);
  EXPECT_EQ(parsed, scenario);
  EXPECT_EQ(SerializeArtifact(parsed), text);

  const sim::SimResult run = RunScenario(scenario);
  EXPECT_GT(run.report.drift_checks, 0u);
  EXPECT_LE(run.report.drift_residual_rules, run.report.drift_rules_abandoned);
  const ChaosVerdict verdict = JudgeScenario(scenario, options);
  EXPECT_FALSE(verdict.failed) << verdict.oracle << ": " << verdict.detail;
}

TEST(ChaosTest, GreylessArtifactsOmitTheGreyLine) {
  // Old artifacts predate the grey key; scenarios without a model must
  // serialize to exactly the old bytes.
  ChaosOptions options = QuickOptions();
  options.seed = 17;  // a seed whose trial 0 draws no grey model
  ChaosScenario scenario = MakeTrialScenario(options, 0);
  scenario.grey = fault::GreyFailureModel{};
  const std::string text = SerializeArtifact(scenario);
  EXPECT_EQ(text.find("\ngrey "), std::string::npos);
  EXPECT_EQ(ParseArtifact(text), scenario);
}

TEST(ChaosTest, ParseArtifactRejectsMalformedInput) {
  const ChaosScenario scenario = MakeTrialScenario(QuickOptions(), 0);
  const std::string good = SerializeArtifact(scenario);
  EXPECT_THROW((void)ParseArtifact(""), ChaosError);
  EXPECT_THROW((void)ParseArtifact("netupdate-chaos-repro v2\n"), ChaosError);
  EXPECT_THROW((void)ParseArtifact("netupdate-chaos-repro v1\nseed x\n"),
               ChaosError);
  EXPECT_THROW(
      (void)ParseArtifact("netupdate-chaos-repro v1\nscheduler warp\n"),
      ChaosError);
  // Truncation anywhere — header-only, or mid-plan — is rejected.
  EXPECT_THROW((void)ParseArtifact("netupdate-chaos-repro v1\n"), ChaosError);
  const std::string truncated = good.substr(0, good.rfind("plan") + 5);
  EXPECT_THROW((void)ParseArtifact(truncated), ChaosError);
  // So is trailing garbage after the embedded plan.
  EXPECT_THROW((void)ParseArtifact(good + "trailing garbage\n"), ChaosError);
  // A grey model that fails to parse or validate is rejected up front.
  const std::string::size_type header_end = good.find('\n') + 1;
  const std::string bad_grey =
      good.substr(0, header_end) + "grey warp:1\n" + good.substr(header_end);
  EXPECT_THROW((void)ParseArtifact(bad_grey), ChaosError);
  const std::string invalid_grey =
      good.substr(0, header_end) + "grey acklie:1.5\n" + good.substr(header_end);
  EXPECT_THROW((void)ParseArtifact(invalid_grey), ChaosError);
}

TEST(ChaosTest, ParseArtifactRejectsMalformedNumbers) {
  // Each line is inserted right after the header of a valid artifact; none
  // may load, whether it is not finite, signed, too wide or partly numeric.
  const std::string good =
      SerializeArtifact(MakeTrialScenario(QuickOptions(), 0));
  const std::string::size_type header_end = good.find('\n') + 1;
  for (const char* line :
       {"cascade 2 nan 0.5 inf", "cascade 2 0.9 0.3 inf",
        "cascade -1 0.9 0.3 2", "storm nan 1.5 0.8 0.2", "storm 1 1.5 inf 0.2",
        "serve inf 1", "serve 2 nan", "seed -1", "seed 1x",
        "seed 18446744073709551616", "k 4x", "events -3", "shards 2 1.5",
        "grey acklie:nan", "scheduler FIFO"}) {
    SCOPED_TRACE(line);
    const std::string text = good.substr(0, header_end) + line + "\n" +
                             good.substr(header_end);
    EXPECT_THROW((void)ParseArtifact(text), ChaosError);
  }
}

TEST(ChaosTest, ParseArtifactRejectsNumbersTheScenarioRefuses) {
  // Well-formed numbers the scenario builder takes as preconditions: each
  // used to parse and then abort the replay (exit 134).
  const ChaosScenario good = MakeTrialScenario(QuickOptions(), 0);
  std::vector<std::pair<const char*, ChaosScenario>> cases;
  ChaosScenario odd_k = good;
  odd_k.fat_tree_k = 5;
  cases.emplace_back("k 5", odd_k);
  ChaosScenario zero_k = good;
  zero_k.fat_tree_k = 0;
  cases.emplace_back("k 0", zero_k);
  ChaosScenario sure_storm = good;
  sure_storm.storm = fault::FlakyStorm{1.0, 1.5, {1.0, 0.2}};
  cases.emplace_back("storm failure probability 1", sure_storm);
  ChaosScenario negative_storm = good;
  negative_storm.storm = fault::FlakyStorm{1.0, 1.5, {-0.5, 0.2}};
  cases.emplace_back("storm failure probability -0.5", negative_storm);
  ChaosScenario stalled_serve = good;
  stalled_serve.serve_load = 2.0;
  stalled_serve.serve_rate = 0.0;
  cases.emplace_back("serve rate 0", stalled_serve);
  ChaosScenario empty_serve = good;
  empty_serve.serve_load = 2.0;
  empty_serve.event_count = 0;
  cases.emplace_back("serve stream of 0 s", empty_serve);
  ChaosScenario foreign_link = good;
  foreign_link.plan.AddLinkDown(1.0, LinkId{9999});
  cases.emplace_back("plan link 9999", foreign_link);
  for (const auto& [name, scenario] : cases) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)ParseArtifact(SerializeArtifact(scenario)), ChaosError);
  }
  EXPECT_EQ(ParseArtifact(SerializeArtifact(good)), good);
}

TEST(ChaosTest, CampaignIsAPureFunctionOfItsOptions) {
  ChaosOptions options = QuickOptions();
  options.inject_bug = true;
  options.trials = 4;
  const ChaosCampaignResult a = RunChaosCampaign(options);
  const ChaosCampaignResult b = RunChaosCampaign(options);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].trial, b.failures[i].trial);
    EXPECT_EQ(a.failures[i].artifact, b.failures[i].artifact);
    EXPECT_EQ(a.failures[i].shrink_runs, b.failures[i].shrink_runs);
  }
}

}  // namespace
}  // namespace nu::exp
