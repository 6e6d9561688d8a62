// Deterministic chaos campaigns: sweep randomized scenario x scheduler x
// fault-plan combinations through the simulator, judge each run against a
// set of oracles (auditor violations, deadline misses, drift residue,
// report-CSV nondeterminism), and shrink every failure ddmin-style to a minimal repro
// artifact that replays bit-identically. The campaign is a pure function of
// its options — same seed, same trials, same failures, same artifacts —
// which is what makes a chaos failure a bug report instead of an anecdote.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "sched/factory.h"

namespace nu::exp {

/// Thrown on malformed repro artifacts (ParseArtifact).
class ChaosError : public std::runtime_error {
 public:
  explicit ChaosError(const std::string& what)
      : std::runtime_error("chaos artifact error: " + what) {}
};

/// One fully pinned chaos trial: everything a failing run needs to be rerun
/// exactly — workload shape, scheduler, fault plan, cascade model, and an
/// optional flaky-install storm window. Serializes to the repro-artifact
/// format (SerializeArtifact / ParseArtifact).
struct ChaosScenario {
  std::uint64_t seed = 1;
  /// Fat-Tree arity of the workload fabric (even, >= 4).
  std::size_t fat_tree_k = 4;
  std::size_t event_count = 6;
  sched::SchedulerKind scheduler = sched::SchedulerKind::kLmtf;
  fault::FaultPlan plan;
  fault::CascadeConfig cascade;
  std::optional<fault::FlakyStorm> storm;
  /// Grey-failure model (silent dataplane divergence — ack-lies,
  /// stragglers, rule loss; docs/model.md §16). A non-empty model also arms
  /// the reconciler and the drift-convergence oracle: a run must end with
  /// zero residual drift beyond what abandonment or quarantine explicitly
  /// excuses. Empty = healthy dataplane; old artifacts parse unchanged.
  fault::GreyFailureModel grey;
  /// Serve-mode trial: > 0 replaces the offline trace with the open-loop
  /// arrival stream at `serve_load` x `serve_rate` events/s and arms the
  /// deadline-miss oracle. `event_count` then doubles as the stream
  /// duration in virtual seconds (so ddmin's trace-halving stage shortens
  /// the stream), and the scheduler field is ignored — serve runs always
  /// use the brownout-degradable P-LMTF ladder. 0 = offline scenario; old
  /// artifacts parse unchanged.
  double serve_load = 0.0;
  /// Pinned arrival base rate (events/s) for serve-mode trials. Pinned
  /// rather than calibrated so judging a scenario never depends on a
  /// calibration run.
  double serve_rate = 1.0;
  /// Pod-sharded engine: >= 2 runs every trial on the sharded simulator
  /// (SimConfig::shards). 0 = unsharded; old artifacts parse unchanged.
  std::size_t shards = 0;
  /// Worker threads for sharded trials (0 = engine default).
  std::size_t shard_threads = 0;

  friend bool operator==(const ChaosScenario& a, const ChaosScenario& b);
};

/// Verdict of judging one scenario against the oracles.
struct ChaosVerdict {
  bool failed = false;
  /// Which oracle fired: "audit-violation" | "deadline-miss" |
  /// "drift-residual" | "nondeterminism" | "injected-bug"; empty when none.
  std::string oracle;
  std::string detail;
};

struct ChaosOptions {
  std::uint64_t seed = 1;
  std::size_t trials = 8;
  /// Workload shape for generated scenarios.
  std::size_t fat_tree_k = 4;
  std::size_t event_count = 6;
  /// Rerun every judged scenario and byte-compare the report CSVs (the
  /// determinism oracle). Doubles the simulation cost.
  bool check_determinism = true;
  /// Planted deterministic defect for exercising the full find -> shrink ->
  /// replay loop end to end: the oracle additionally fails any run in which
  /// a fault killed at least one flow. Shrinking then converges on a
  /// minimal plan that still draws blood.
  bool inject_bug = false;
  /// Budget of oracle evaluations the shrinker may spend per failure.
  std::size_t max_shrink_runs = 64;
  /// Serve-mode campaign: > 0 makes every trial an online-serving run at
  /// this offered load (see ChaosScenario::serve_load) with the
  /// deadline-miss oracle armed — an admitted event missing its tenant SLO
  /// is a finding (admission + brownout should have shed or rejected it).
  double serve_load = 0.0;
  /// Base arrival rate for serve-mode trials (events/s).
  double serve_rate = 1.0;
  /// Run every trial on the pod-sharded engine with this many shards
  /// (>= 2); 0 keeps trials unsharded.
  std::size_t shards = 0;
  /// Worker threads for sharded trials (0 = engine default).
  std::size_t shard_threads = 0;
  /// Grey-failure model pinned onto EVERY trial (the --grey= flag). Empty
  /// lets MakeTrialScenario roll its own model on a fraction of trials.
  fault::GreyFailureModel grey;
};

/// One shrunk failure of a campaign.
struct ChaosFailure {
  /// Trial index (0-based) whose scenario failed.
  std::size_t trial = 0;
  /// The minimized scenario (ShrinkScenario output).
  ChaosScenario scenario;
  /// Verdict of the minimized scenario.
  ChaosVerdict verdict;
  /// Oracle evaluations the shrinker spent.
  std::size_t shrink_runs = 0;
  /// SerializeArtifact(scenario) — ready to write to disk and --replay.
  std::string artifact;
};

struct ChaosCampaignResult {
  std::size_t trials_run = 0;
  std::vector<ChaosFailure> failures;
};

/// Builds the deterministic scenario for campaign trial `trial` (exposed so
/// tests can pin individual trials without running a whole campaign).
[[nodiscard]] ChaosScenario MakeTrialScenario(const ChaosOptions& options,
                                              std::size_t trial);

/// Runs `scenario` once through the simulator. Throws fault::FaultPlanError
/// if the scenario's plan does not validate against its own fabric — a
/// malformed scenario is a harness bug, not a chaos finding.
[[nodiscard]] sim::SimResult RunScenario(const ChaosScenario& scenario);

/// Runs and judges `scenario` against every oracle (twice when
/// options.check_determinism).
[[nodiscard]] ChaosVerdict JudgeScenario(const ChaosScenario& scenario,
                                         const ChaosOptions& options);

/// ddmin-style minimization of a failing scenario: drops fault-plan events
/// (chunk halving down to single specs, unused group declarations pruned),
/// then sheds grey-failure specs, then halves the event count, then steps
/// the fabric arity down — keeping every candidate that still fails the
/// same oracle. Deterministic; spends
/// at most options.max_shrink_runs oracle evaluations. `runs`, when
/// non-null, receives the number spent.
[[nodiscard]] ChaosScenario ShrinkScenario(const ChaosScenario& failing,
                                           const ChaosOptions& options,
                                           std::size_t* runs = nullptr);

/// Campaign driver: for each trial, generate -> judge -> (on failure)
/// shrink and serialize the repro artifact.
[[nodiscard]] ChaosCampaignResult RunChaosCampaign(const ChaosOptions& options);

/// Repro-artifact text format ("netupdate-chaos-repro v1"): key=value
/// scenario lines followed by the embedded fault plan in its own text
/// format. Round-trips exactly and platform-independently (same shortest
/// round-trip number formatting as the fault-plan format).
[[nodiscard]] std::string SerializeArtifact(const ChaosScenario& scenario);
[[nodiscard]] ChaosScenario ParseArtifact(const std::string& text);

}  // namespace nu::exp
