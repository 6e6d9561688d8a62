#include "exp/chaos.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string_view>

#include "common/check.h"
#include "exp/serve.h"
#include "fault/srlg.h"
#include "guard/auditor.h"
#include "metrics/export.h"
#include "topo/fat_tree.h"

namespace nu::exp {
namespace {

constexpr std::string_view kArtifactHeader = "netupdate-chaos-repro v1";

[[noreturn]] void Fail(const std::string& what) { throw ChaosError(what); }

/// Shortest round-trip formatting (same discipline as the fault-plan
/// format): artifact bytes must be platform-independent.
std::string FormatNum(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  NU_CHECK(ec == std::errc());
  return std::string(buf, end);
}

double ParseNum(std::string_view token) {
  double value = 0.0;
  const auto [rest, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || rest != token.data() + token.size()) {
    Fail("bad number '" + std::string(token) + "'");
  }
  return value;
}

std::uint64_t ParseU64(std::string_view token) {
  std::uint64_t value = 0;
  const auto [rest, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || rest != token.data() + token.size()) {
    Fail("bad integer '" + std::string(token) + "'");
  }
  return value;
}

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

sched::SchedulerKind ParseSchedulerName(const std::string& name) {
  // ParseSchedulerKind aborts on unknown names; artifacts are hand-editable
  // so pre-validate and throw instead.
  for (const char* known :
       {"fifo", "reorder", "lmtf", "p-lmtf", "plmtf", "sjf-size", "sjf"}) {
    if (name == known) return sched::ParseSchedulerKind(name);
  }
  Fail("unknown scheduler '" + name + "'");
}

/// Rebuilds a plan holding exactly `specs`, pruning group declarations no
/// surviving spec references (and remapping the kept specs' group indices).
fault::FaultPlan RebuildPlan(const fault::FaultPlan& original,
                             const std::vector<fault::FaultSpec>& specs) {
  std::vector<std::size_t> remap(original.groups().size(), fault::kNoGroup);
  fault::FaultPlan plan;
  for (std::size_t gi = 0; gi < original.groups().size(); ++gi) {
    const bool used =
        std::any_of(specs.begin(), specs.end(),
                    [gi](const fault::FaultSpec& s) { return s.group == gi; });
    if (used) remap[gi] = plan.AddGroup(original.groups()[gi]);
  }
  for (const fault::FaultSpec& s : specs) {
    switch (s.kind) {
      case fault::FaultKind::kLinkDown:
        plan.AddLinkDown(s.time, s.link);
        break;
      case fault::FaultKind::kLinkUp:
        plan.AddLinkUp(s.time, s.link);
        break;
      case fault::FaultKind::kSwitchDown:
        plan.AddSwitchDown(s.time, s.node);
        break;
      case fault::FaultKind::kSwitchUp:
        plan.AddSwitchUp(s.time, s.node);
        break;
      case fault::FaultKind::kGroupDown:
        plan.AddGroupDown(s.time, remap[s.group]);
        break;
      case fault::FaultKind::kGroupUp:
        plan.AddGroupUp(s.time, remap[s.group]);
        break;
    }
  }
  return plan;
}

bool PlanValidFor(const fault::FaultPlan& plan, std::size_t k) {
  const topo::FatTree ft(
      topo::FatTreeConfig{.k = k, .link_capacity = 100.0});
  try {
    (void)plan.Validate(ft.graph());
  } catch (const fault::FaultPlanError&) {
    return false;
  }
  return true;
}

}  // namespace

bool operator==(const ChaosScenario& a, const ChaosScenario& b) {
  const bool storm_eq =
      a.storm.has_value() == b.storm.has_value() &&
      (!a.storm.has_value() ||
       (a.storm->start == b.storm->start &&
        a.storm->duration == b.storm->duration &&
        a.storm->model.failure_probability ==
            b.storm->model.failure_probability &&
        a.storm->model.latency_jitter_frac ==
            b.storm->model.latency_jitter_frac));
  return a.seed == b.seed && a.fat_tree_k == b.fat_tree_k &&
         a.event_count == b.event_count && a.scheduler == b.scheduler &&
         a.plan == b.plan &&
         a.cascade.max_secondary_failures == b.cascade.max_secondary_failures &&
         a.cascade.utilization_threshold == b.cascade.utilization_threshold &&
         a.cascade.hold_time == b.cascade.hold_time &&
         a.cascade.outage == b.cascade.outage && storm_eq &&
         a.grey == b.grey && a.serve_load == b.serve_load &&
         a.serve_rate == b.serve_rate && a.shards == b.shards &&
         a.shard_threads == b.shard_threads;
}

ChaosScenario MakeTrialScenario(const ChaosOptions& options,
                                std::size_t trial) {
  ChaosScenario scenario;
  scenario.seed = options.seed ^ (0x9E3779B97F4A7C15ULL * (trial + 1));
  scenario.fat_tree_k = options.fat_tree_k;
  scenario.event_count = options.event_count;
  constexpr sched::SchedulerKind kRotation[] = {sched::SchedulerKind::kFifo,
                                                sched::SchedulerKind::kLmtf,
                                                sched::SchedulerKind::kPlmtf};
  scenario.scheduler = kRotation[trial % 3];

  // The plan rng is independent of the run's streams: generating a harder
  // plan never perturbs what the simulator itself draws.
  Rng rng(options.seed ^ (0xC0DEULL + trial));
  const topo::FatTree ft(topo::FatTreeConfig{.k = scenario.fat_tree_k,
                                             .link_capacity = 100.0});
  switch (rng.Index(3)) {
    case 0: {
      fault::RandomLinkFaultOptions lo;
      lo.failures = 2;
      lo.outage = 2.0;
      scenario.plan = fault::MakeRandomLinkFaultPlan(ft.graph(), lo, rng);
      break;
    }
    case 1: {
      fault::RandomSrlgFaultOptions so;
      so.incidents = 1;
      so.outage = 2.0;
      scenario.plan = fault::MakeRandomSrlgFaultPlan(
          fault::DeriveFatTreeSrlgs(ft), so, rng);
      break;
    }
    default: {
      // Correlated group incident with the overload cascade armed on top.
      fault::RandomSrlgFaultOptions so;
      so.incidents = 1;
      so.outage = 2.0;
      scenario.plan = fault::MakeRandomSrlgFaultPlan(
          fault::DeriveFatTreeSrlgs(ft), so, rng);
      scenario.cascade.max_secondary_failures = 2;
      scenario.cascade.utilization_threshold = 0.9;
      scenario.cascade.hold_time = 0.3;
      scenario.cascade.outage = 2.0;
      break;
    }
  }
  if (rng.Bernoulli(0.3)) {
    scenario.storm = fault::FlakyStorm{1.0, 1.5, {0.8, 0.2}};
  }
  if (options.grey.enabled()) {
    scenario.grey = options.grey;
  } else if (rng.Bernoulli(0.35)) {
    // A lying dataplane on roughly a third of trials; the failure mode
    // rotates so campaigns cover every repair path (immediate re-issue,
    // deferred apply, silent re-eviction).
    fault::GreyFailureSpec spec;
    switch (rng.Index(3)) {
      case 0:
        spec.kind = fault::GreyKind::kAckLie;
        spec.probability = 0.08;
        break;
      case 1:
        spec.kind = fault::GreyKind::kStraggler;
        spec.probability = 0.15;
        spec.min_delay = 0.2;
        spec.max_delay = 1.0;
        break;
      default:
        spec.kind = fault::GreyKind::kRuleLoss;
        spec.probability = 0.08;
        spec.min_delay = 0.5;
        spec.max_delay = 2.0;
        break;
    }
    scenario.grey.specs.push_back(spec);
  }
  scenario.serve_load = options.serve_load;
  scenario.serve_rate = options.serve_rate;
  scenario.shards = options.shards;
  scenario.shard_threads = options.shard_threads;
  return scenario;
}

sim::SimResult RunScenario(const ChaosScenario& scenario) {
  if (scenario.serve_load > 0.0) {
    // Online-serving trial: the scenario's fault plan lands under the
    // open-loop arrival stream with the full serve stack (admission,
    // brownout ladder, bounded queue) armed. event_count doubles as the
    // stream duration so the shrinker's trace-halving stage applies.
    ServeCampaignConfig campaign = DefaultServeCampaign(scenario.serve_rate);
    campaign.exp.fat_tree_k = scenario.fat_tree_k;
    campaign.exp.seed = scenario.seed;
    campaign.offered_load = scenario.serve_load;
    campaign.serve.arrivals.duration =
        static_cast<Seconds>(scenario.event_count);
    campaign.exp.sim.faults.plan = scenario.plan;
    campaign.exp.sim.faults.cascade = scenario.cascade;
    if (scenario.storm.has_value()) {
      campaign.exp.sim.faults.storms.push_back(*scenario.storm);
    }
    campaign.exp.sim.faults.retry.max_attempts = 3;
    campaign.exp.sim.faults.retry.base_delay = 0.05;
    campaign.exp.sim.faults.grey = scenario.grey;
    // A grey model without the reconciler drifts forever by design; chaos
    // trials always pair them so the convergence oracle is meaningful.
    campaign.exp.sim.recon.enabled = scenario.grey.enabled();
    campaign.exp.sim.shards = scenario.shards;
    campaign.exp.sim.shard_threads = scenario.shard_threads;
    return RunServeCampaign(campaign);
  }

  ExperimentConfig config;
  config.fat_tree_k = scenario.fat_tree_k;
  config.utilization = 0.6;
  config.event_count = scenario.event_count;
  config.min_flows_per_event = 4;
  config.max_flows_per_event = 12;
  config.alpha = 4;
  config.background_churn = true;
  config.seed = scenario.seed;

  config.sim.faults.plan = scenario.plan;
  config.sim.faults.cascade = scenario.cascade;
  if (scenario.storm.has_value()) {
    config.sim.faults.storms.push_back(*scenario.storm);
  }
  config.sim.faults.flaky.failure_probability = 0.1;
  config.sim.faults.flaky.latency_jitter_frac = 0.1;
  config.sim.faults.retry.max_attempts = 3;
  config.sim.faults.retry.base_delay = 0.05;
  config.sim.faults.grey = scenario.grey;
  config.sim.recon.enabled = scenario.grey.enabled();

  config.sim.guard.overload.max_queue_length = 8;
  config.sim.guard.deadline.base_deadline = 6.0;
  config.sim.guard.deadline.per_flow_deadline = 1.0;
  config.sim.guard.deadline.requeue_backoff = 0.5;
  config.sim.guard.deadline.max_failures = 3;
  config.sim.guard.auditor.enabled = true;
  config.sim.guard.auditor.mode = guard::AuditMode::kLogAndCount;
  config.sim.guard.auditor.cadence = 8;

  config.sim.shards = scenario.shards;
  config.sim.shard_threads = scenario.shard_threads;

  const Workload workload(config);
  return RunScheduler(workload, scenario.scheduler);
}

ChaosVerdict JudgeScenario(const ChaosScenario& scenario,
                           const ChaosOptions& options) {
  ChaosVerdict verdict;
  const sim::SimResult first = RunScenario(scenario);
  if (!first.violations.empty()) {
    const guard::AuditViolation& v = first.violations.front();
    verdict.failed = true;
    verdict.oracle = "audit-violation";
    verdict.detail = "[" + v.invariant + "] round " + std::to_string(v.round) +
                     " epoch " + std::to_string(v.topology_epoch) + ": " +
                     v.detail;
    return verdict;
  }
  if (scenario.serve_load > 0.0 && first.serve.slo_misses > 0) {
    // Deadline-miss oracle: an ADMITTED event blew its tenant SLO. The
    // admission gates and brownout ladder exist precisely so overload is
    // absorbed by rejection/shedding instead of tail latency — a miss means
    // the stack let something through it could not serve in time.
    verdict.failed = true;
    verdict.oracle = "deadline-miss";
    verdict.detail = std::to_string(first.serve.slo_misses) +
                     " admitted event(s) missed their tenant SLO deadline";
    return verdict;
  }
  if (scenario.grey.enabled()) {
    // Drift-convergence oracle: a campaign run must end reconciled. The
    // only excused residual divergence is rules the reconciler explicitly
    // ABANDONED (repair budget exhausted) — quarantined switches drop
    // their divergence when drained, so anything beyond the abandonment
    // count is live drift the run finished on top of.
    const metrics::Report& rep = first.report;
    if (rep.drift_residual_rules > rep.drift_rules_abandoned) {
      verdict.failed = true;
      verdict.oracle = "drift-residual";
      std::string detail = std::to_string(rep.drift_residual_rules);
      detail += " residual divergent rule(s) at end of run, only ";
      detail += std::to_string(rep.drift_rules_abandoned);
      detail += " excused by abandonment";
      verdict.detail = std::move(detail);
      return verdict;
    }
  }
  if (options.check_determinism) {
    const sim::SimResult second = RunScenario(scenario);
    std::ostringstream first_csv;
    std::ostringstream second_csv;
    metrics::WriteReportCsv(first_csv, first.report);
    metrics::WriteReportCsv(second_csv, second.report);
    if (first_csv.str() != second_csv.str()) {
      verdict.failed = true;
      verdict.oracle = "nondeterminism";
      verdict.detail = "report CSVs differ across identical runs";
      return verdict;
    }
    if (first.serve_timeseries_csv != second.serve_timeseries_csv) {
      verdict.failed = true;
      verdict.oracle = "nondeterminism";
      verdict.detail = "serve timeseries CSVs differ across identical runs";
      return verdict;
    }
  }
  if (options.inject_bug && first.report.flows_killed > 0) {
    verdict.failed = true;
    verdict.oracle = "injected-bug";
    verdict.detail =
        std::to_string(first.report.flows_killed) + " flows killed by faults";
  }
  return verdict;
}

ChaosScenario ShrinkScenario(const ChaosScenario& failing,
                             const ChaosOptions& options, std::size_t* runs) {
  std::size_t spent = 0;
  const ChaosVerdict original = JudgeScenario(failing, options);
  ++spent;
  ChaosScenario best = failing;
  if (!original.failed) {
    // Nothing to hold on to — the caller handed us a passing scenario.
    if (runs != nullptr) *runs = spent;
    return best;
  }
  // A candidate counts only if it fails the SAME oracle: shrinking must not
  // wander from one bug to a different one.
  auto still_fails = [&](const ChaosScenario& candidate) -> bool {
    if (spent >= options.max_shrink_runs) return false;
    ++spent;
    const ChaosVerdict v = JudgeScenario(candidate, options);
    return v.failed && v.oracle == original.oracle;
  };

  // Stage 1: ddmin over the fault plan's specs — drop complement chunks,
  // halving granularity, until no single-spec removal preserves the
  // failure. An empty plan is tried first (the bug may not need faults).
  if (!best.plan.empty()) {
    ChaosScenario bare = best;
    bare.plan = fault::FaultPlan();
    if (still_fails(bare)) {
      best = bare;
    } else {
      std::vector<fault::FaultSpec> specs = best.plan.specs();
      std::size_t granularity = 2;
      while (specs.size() >= 2) {
        const std::size_t chunk = (specs.size() + granularity - 1) /
                                  granularity;
        bool reduced = false;
        for (std::size_t start = 0; start < specs.size(); start += chunk) {
          std::vector<fault::FaultSpec> rest;
          rest.reserve(specs.size());
          for (std::size_t i = 0; i < specs.size(); ++i) {
            if (i < start || i >= start + chunk) rest.push_back(specs[i]);
          }
          if (rest.empty()) continue;
          ChaosScenario candidate = best;
          candidate.plan = RebuildPlan(best.plan, rest);
          if (still_fails(candidate)) {
            specs = std::move(rest);
            best = std::move(candidate);
            granularity = std::max<std::size_t>(granularity - 1, 2);
            reduced = true;
            break;
          }
        }
        if (!reduced) {
          if (granularity >= specs.size()) break;
          granularity = std::min(specs.size(), granularity * 2);
        }
      }
    }
  }

  // Stage 2: shed grey-failure specs — the whole model first (the bug may
  // not need a lying dataplane at all), then one spec at a time.
  if (best.grey.enabled()) {
    ChaosScenario honest = best;
    honest.grey = fault::GreyFailureModel();
    if (still_fails(honest)) {
      best = std::move(honest);
    } else if (best.grey.specs.size() >= 2) {
      for (std::size_t i = 0; i < best.grey.specs.size();) {
        ChaosScenario candidate = best;
        candidate.grey.specs.erase(candidate.grey.specs.begin() +
                                   static_cast<std::ptrdiff_t>(i));
        if (still_fails(candidate)) {
          best = std::move(candidate);
        } else {
          ++i;
        }
      }
    }
  }

  // Stage 3: halve the trace length while the failure survives.
  while (best.event_count > 2) {
    ChaosScenario candidate = best;
    candidate.event_count = best.event_count / 2;
    if (!still_fails(candidate)) break;
    best = std::move(candidate);
  }

  // Stage 4: step the fabric arity down. Candidates whose plan references
  // ids outside the smaller fabric are skipped, not judged — an invalid
  // plan is a harness error, never a finding.
  while (best.fat_tree_k > 4) {
    ChaosScenario candidate = best;
    candidate.fat_tree_k = best.fat_tree_k - 2;
    if (!PlanValidFor(candidate.plan, candidate.fat_tree_k)) break;
    if (!still_fails(candidate)) break;
    best = std::move(candidate);
  }

  if (runs != nullptr) *runs = spent;
  return best;
}

ChaosCampaignResult RunChaosCampaign(const ChaosOptions& options) {
  ChaosCampaignResult result;
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    const ChaosScenario scenario = MakeTrialScenario(options, trial);
    const ChaosVerdict verdict = JudgeScenario(scenario, options);
    ++result.trials_run;
    if (!verdict.failed) continue;
    ChaosFailure failure;
    failure.trial = trial;
    failure.scenario = ShrinkScenario(scenario, options, &failure.shrink_runs);
    failure.verdict = JudgeScenario(failure.scenario, options);
    failure.artifact = SerializeArtifact(failure.scenario);
    result.failures.push_back(std::move(failure));
  }
  return result;
}

std::string SerializeArtifact(const ChaosScenario& scenario) {
  std::ostringstream out;
  out << kArtifactHeader << "\n";
  out << "seed " << scenario.seed << "\n";
  out << "k " << scenario.fat_tree_k << "\n";
  out << "events " << scenario.event_count << "\n";
  out << "scheduler " << sched::ToString(scenario.scheduler) << "\n";
  out << "cascade " << scenario.cascade.max_secondary_failures << " "
      << FormatNum(scenario.cascade.utilization_threshold) << " "
      << FormatNum(scenario.cascade.hold_time) << " "
      << FormatNum(scenario.cascade.outage) << "\n";
  if (scenario.storm.has_value()) {
    out << "storm " << FormatNum(scenario.storm->start) << " "
        << FormatNum(scenario.storm->duration) << " "
        << FormatNum(scenario.storm->model.failure_probability) << " "
        << FormatNum(scenario.storm->model.latency_jitter_frac) << "\n";
  }
  if (scenario.grey.enabled()) {
    // Absent on healthy-dataplane scenarios so pre-grey artifacts stay
    // byte-stable. The compact model form contains no spaces.
    out << "grey " << fault::FormatGreyModel(scenario.grey) << "\n";
  }
  if (scenario.serve_load > 0.0) {
    // Absent on offline scenarios so pre-serve artifacts stay byte-stable.
    out << "serve " << FormatNum(scenario.serve_load) << " "
        << FormatNum(scenario.serve_rate) << "\n";
  }
  if (scenario.shards >= 2) {
    // Absent on unsharded scenarios so pre-shard artifacts stay byte-stable.
    out << "shards " << scenario.shards << " " << scenario.shard_threads
        << "\n";
  }
  out << "plan\n";
  scenario.plan.SaveText(out);
  return out.str();
}

ChaosScenario ParseArtifact(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || Tokens(line) != Tokens(std::string(
                                                     kArtifactHeader))) {
    Fail("missing header '" + std::string(kArtifactHeader) + "'");
  }
  ChaosScenario scenario;
  bool saw_seed = false;
  bool saw_plan = false;
  while (std::getline(in, line)) {
    const std::vector<std::string> tokens = Tokens(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& key = tokens[0];
    if (key == "plan") {
      // Everything after the 'plan' line is the embedded fault plan; a
      // malformed one is a malformed ARTIFACT, so surface it as ChaosError.
      try {
        scenario.plan = fault::FaultPlan::LoadText(in);
      } catch (const fault::FaultPlanError& e) {
        Fail(std::string("embedded plan: ") + e.what());
      }
      saw_plan = true;
      break;
    }
    if (key == "seed" && tokens.size() == 2) {
      scenario.seed = ParseU64(tokens[1]);
      saw_seed = true;
    } else if (key == "k" && tokens.size() == 2) {
      scenario.fat_tree_k = static_cast<std::size_t>(ParseU64(tokens[1]));
    } else if (key == "events" && tokens.size() == 2) {
      scenario.event_count = static_cast<std::size_t>(ParseU64(tokens[1]));
    } else if (key == "scheduler" && tokens.size() == 2) {
      scenario.scheduler = ParseSchedulerName(tokens[1]);
    } else if (key == "cascade" && tokens.size() == 5) {
      scenario.cascade.max_secondary_failures =
          static_cast<std::size_t>(ParseU64(tokens[1]));
      scenario.cascade.utilization_threshold = ParseNum(tokens[2]);
      scenario.cascade.hold_time = ParseNum(tokens[3]);
      scenario.cascade.outage = ParseNum(tokens[4]);
    } else if (key == "grey" && tokens.size() == 2) {
      try {
        scenario.grey = fault::ParseGreyModel(tokens[1]).Validate();
      } catch (const fault::FaultPlanError& e) {
        Fail(std::string("grey model: ") + e.what());
      }
    } else if (key == "serve" && tokens.size() == 3) {
      scenario.serve_load = ParseNum(tokens[1]);
      scenario.serve_rate = ParseNum(tokens[2]);
    } else if (key == "shards" && tokens.size() == 3) {
      scenario.shards = static_cast<std::size_t>(ParseU64(tokens[1]));
      scenario.shard_threads = static_cast<std::size_t>(ParseU64(tokens[2]));
    } else if (key == "storm" && tokens.size() == 5) {
      fault::FlakyStorm storm;
      storm.start = ParseNum(tokens[1]);
      storm.duration = ParseNum(tokens[2]);
      storm.model.failure_probability = ParseNum(tokens[3]);
      storm.model.latency_jitter_frac = ParseNum(tokens[4]);
      scenario.storm = storm;
    } else {
      Fail("unrecognized line '" + line + "'");
    }
  }
  if (!saw_seed) Fail("missing 'seed' line");
  if (!saw_plan) Fail("missing 'plan' section");
  return scenario;
}

}  // namespace nu::exp
