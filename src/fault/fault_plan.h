// Deterministic fault schedules. A FaultPlan is a time-ordered list of
// data-plane incidents — cable (link) down/up, switch down/up, and
// correlated GROUP events over shared-risk groups (pod power events, core
// plane losses) — plus the probabilistic flaky-install model that makes rule
// installations fallible. Plans are plain data: building one draws nothing
// from any Rng unless a random-plan helper is used, and those helpers
// consume an explicit Rng, so a (plan, seed) pair reproduces a run
// bit-for-bit.
//
// Compound incidents expand at plan-build time:
//   * AddGroupOutage — the whole group transitions down (and later up) as
//     ONE incident: a single topology-epoch bump, one victim sweep across
//     every member (see fault::ApplyFaultState / AffectedFlows overloads).
//   * AddRollingDrain — a staggered maintenance drain: the group's members
//     go down one at a time, `stagger` apart, each for `outage` seconds.
//     Expands to primitive per-element specs (each its own transition,
//     which is the point of a rolling drain).
//
// Plans serialize to a line-oriented text format (SaveText/LoadText) so
// chaos-campaign repro artifacts and hand-written plans share one format.
//
// The paper motivates update events with "network failures" as a
// first-class trigger; this module supplies the failure side of that story
// so the schedulers can be exercised under the conditions they exist for.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/srlg.h"
#include "topo/graph.h"

namespace nu::fault {

enum class FaultKind : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kSwitchDown,
  kSwitchUp,
  kGroupDown,
  kGroupUp,
};

[[nodiscard]] const char* ToString(FaultKind kind);

/// Thrown when a plan is malformed: a negative or non-finite time, a
/// non-positive or non-finite outage, a group index with no declared group,
/// or (via Validate) a link/node id that does not exist in the topology the
/// plan will run against. Build-time rejection keeps a bad plan from
/// silently misfiring mid-run.
class FaultPlanError : public std::runtime_error {
 public:
  explicit FaultPlanError(const std::string& what)
      : std::runtime_error("fault plan error: " + what) {}
};

/// Sentinel for FaultSpec::group on non-group specs.
inline constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

/// One scheduled incident. Link faults name the forward direction of a
/// cable; the injector takes down/up both directions (a cable failure kills
/// both, as with topo::LinkAvoidingPathProvider). Group faults name an index
/// into the owning plan's groups() catalog and take every member down/up in
/// one topology transition.
struct FaultSpec {
  Seconds time = 0.0;
  FaultKind kind = FaultKind::kLinkDown;
  LinkId link;                  // kLinkDown / kLinkUp
  NodeId node;                  // kSwitchDown / kSwitchUp
  std::size_t group = kNoGroup;  // kGroupDown / kGroupUp

  [[nodiscard]] bool IsLinkFault() const {
    return kind == FaultKind::kLinkDown || kind == FaultKind::kLinkUp;
  }
  [[nodiscard]] bool IsGroupFault() const {
    return kind == FaultKind::kGroupDown || kind == FaultKind::kGroupUp;
  }
  [[nodiscard]] bool IsDown() const {
    return kind == FaultKind::kLinkDown || kind == FaultKind::kSwitchDown ||
           kind == FaultKind::kGroupDown;
  }

  friend bool operator==(const FaultSpec& a, const FaultSpec& b) {
    return a.time == b.time && a.kind == b.kind && a.link == b.link &&
           a.node == b.node && a.group == b.group;
  }
};

/// Probabilistic model of an unreliable rule-install pipeline: each install
/// attempt independently fails with `failure_probability`, and each
/// attempt's latency is stretched by a uniform factor in
/// [1, 1 + latency_jitter_frac).
struct FlakyInstallModel {
  double failure_probability = 0.0;
  double latency_jitter_frac = 0.0;

  [[nodiscard]] bool enabled() const {
    return failure_probability > 0.0 || latency_jitter_frac > 0.0;
  }
};

/// A correlated flaky-install storm: during [start, start + duration) the
/// install pipeline degrades to THIS model instead of the baseline one —
/// e.g. a controller-to-switch control-channel brownout that makes every
/// install in the window likely to fail. Outside all storm windows the
/// baseline FlakyInstallModel applies.
struct FlakyStorm {
  Seconds start = 0.0;
  Seconds duration = 0.0;
  FlakyInstallModel model;

  [[nodiscard]] bool Covers(Seconds t) const {
    return t >= start && t < start + duration;
  }
};

/// A time-sorted incident schedule plus the shared-risk groups its compound
/// specs reference. Add* keeps specs sorted by time (stable for equal times,
/// preserving insertion order — deterministic replay).
class FaultPlan {
 public:
  FaultPlan& AddLinkDown(Seconds time, LinkId link);
  FaultPlan& AddLinkUp(Seconds time, LinkId link);
  /// Down at `time`, back up at `time + outage`. Requires outage > 0 (use
  /// AddLinkDown for a permanent failure); throws FaultPlanError otherwise.
  FaultPlan& AddLinkOutage(Seconds time, Seconds outage, LinkId link);
  FaultPlan& AddSwitchDown(Seconds time, NodeId node);
  FaultPlan& AddSwitchUp(Seconds time, NodeId node);
  FaultPlan& AddSwitchOutage(Seconds time, Seconds outage, NodeId node);

  /// Declares a shared-risk group and returns its index for Add{Group,*}
  /// calls. Empty groups are rejected (they could never fire a victim
  /// sweep, so declaring one is a bug).
  std::size_t AddGroup(SharedRiskGroup group);

  /// Whole-group transition in one topology-epoch bump (e.g. pod power).
  FaultPlan& AddGroupDown(Seconds time, std::size_t group);
  FaultPlan& AddGroupUp(Seconds time, std::size_t group);
  FaultPlan& AddGroupOutage(Seconds time, Seconds outage, std::size_t group);

  /// Rolling maintenance drain over `group`: member i (nodes first, then
  /// links, declaration order) goes down at time + i * stagger for `outage`
  /// seconds. Expands to primitive specs — each element is its own
  /// transition, which is what distinguishes a drain from a power event.
  FaultPlan& AddRollingDrain(Seconds time, Seconds stagger, Seconds outage,
                             std::size_t group);

  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }
  [[nodiscard]] const std::vector<SharedRiskGroup>& groups() const {
    return groups_;
  }
  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

  /// Rejects plans referencing nonexistent link/node ids (in specs or in
  /// group declarations) against the topology the plan will run against.
  /// Throws FaultPlanError naming the first offending spec; returns *this
  /// so workload builders can validate inline.
  const FaultPlan& Validate(const topo::Graph& graph) const;

  /// Line-oriented text serialization (format "netupdate-fault-plan v1").
  /// SaveText/LoadText round-trip exactly: LoadText(SaveText(p)) == p, and
  /// the emitted bytes are platform-independent (times use shortest
  /// round-trip formatting). LoadText throws FaultPlanError on malformed
  /// input. One format for repro artifacts and hand-written plans.
  void SaveText(std::ostream& out) const;
  [[nodiscard]] static FaultPlan LoadText(std::istream& in);
  void SaveFile(const std::string& path) const;
  [[nodiscard]] static FaultPlan LoadFile(const std::string& path);

  friend bool operator==(const FaultPlan& a, const FaultPlan& b);

 private:
  FaultPlan& Add(FaultSpec spec);

  std::vector<FaultSpec> specs_;
  std::vector<SharedRiskGroup> groups_;
};

/// Where in a scheduling round a controller crash fires.
enum class CrashPoint : std::uint8_t {
  /// At the scheduling point of round `at_round`, before any of its work
  /// (right after the checkpoint hook, so it models "crashed immediately
  /// after a snapshot/between rounds").
  kBeforeRound,
  /// After the round's first event has executed and its journal records
  /// are durable; additionally leaves a deliberately torn journal record,
  /// modeling a kill -9 mid-write.
  kMidRound,
};

/// A controller-crash injection point. Unlike data-plane faults this does
/// not model the network failing — it models the CONTROLLER dying, so the
/// simulator aborts by throwing ControllerCrash (no unwinding of committed
/// state, like kill -9). Crash specs are one-shot per process:
/// sim::Simulator::Resume ignores them, otherwise a recovered run would
/// crash at the same round forever.
struct CrashSpec {
  /// 1-based scheduling round at which to die; 0 disables crash injection.
  std::size_t at_round = 0;
  CrashPoint point = CrashPoint::kBeforeRound;

  [[nodiscard]] bool armed() const { return at_round > 0; }
};

/// Thrown by the simulator when an armed CrashSpec fires. Carries no run
/// state on purpose — a crashed controller saves nothing on the way down;
/// recovery works only from what is already on disk.
class ControllerCrash : public std::runtime_error {
 public:
  ControllerCrash(std::size_t round, CrashPoint point)
      : std::runtime_error(
            "controller crash injected at round " + std::to_string(round) +
            (point == CrashPoint::kMidRound ? " (mid-round)" : " (pre-round)")),
        round_(round),
        point_(point) {}

  [[nodiscard]] std::size_t round() const { return round_; }
  [[nodiscard]] CrashPoint point() const { return point_; }

 private:
  std::size_t round_;
  CrashPoint point_;
};

/// Overload-to-cascade feedback: sustained congestion on a link (observed by
/// the guard's LinkStressMonitor) trips the link itself — the thermal /
/// buffer-exhaustion cascade real fabrics exhibit under correlated load
/// spikes. A link whose utilization stays at or above
/// `utilization_threshold` for `hold_time` seconds of virtual time fails as
/// a SECONDARY fault (cascade depth = parent fault's depth + 1), bounded by
/// `max_secondary_failures` per run so a cascade cannot raze the fabric.
struct CascadeConfig {
  /// Secondary-failure budget; 0 disables the cascade engine entirely.
  std::size_t max_secondary_failures = 0;
  /// Utilization (occupied / capacity) at or above which a link is
  /// considered overloaded.
  double utilization_threshold = 0.98;
  /// How long the overload must persist before the link trips.
  Seconds hold_time = 1.0;
  /// How long a cascade-failed link stays down; <= 0 means it never
  /// recovers within the run.
  Seconds outage = 5.0;

  [[nodiscard]] bool enabled() const { return max_secondary_failures > 0; }
};

/// The three grey-failure modes: failures the control plane does NOT see.
/// Unlike FaultKind incidents (visible topology transitions) and the flaky
/// model (install attempts that fail LOUDLY and get retried), a grey
/// failure acknowledges success while the dataplane quietly diverges.
enum class GreyKind : std::uint8_t {
  /// The switch acks the rule install but never applies it.
  kAckLie,
  /// The switch acks immediately but applies after a sampled delay in
  /// [min_delay, max_delay).
  kStraggler,
  /// The switch applies the rule, then silently evicts it after a sampled
  /// delay in [min_delay, max_delay) (TCAM pressure, firmware bugs).
  kRuleLoss,
};

[[nodiscard]] const char* ToString(GreyKind kind);

/// One grey-failure behavior: with `probability`, a rule issued to a
/// matching switch inside the active window suffers `kind`. Specs are plain
/// data; all draws happen at issue time from the dedicated
/// RngStream::kGreyFailures stream, so a (model, seed) pair reproduces the
/// exact same lies bit-for-bit and composes with SRLG/storm/cascade plans
/// without perturbing their streams.
struct GreyFailureSpec {
  GreyKind kind = GreyKind::kAckLie;
  /// Per-rule probability of suffering this spec's failure mode.
  double probability = 0.0;
  /// Delay window for kStraggler (ack-to-apply) and kRuleLoss
  /// (apply-to-eviction); ignored by kAckLie.
  Seconds min_delay = 0.0;
  Seconds max_delay = 0.0;
  /// Active window; duration 0 means the whole run.
  Seconds start = 0.0;
  Seconds duration = 0.0;
  /// Restrict to one switch; invalid() targets every switch.
  NodeId node = NodeId::invalid();

  [[nodiscard]] bool Covers(Seconds t) const {
    return t >= start && (duration <= 0.0 || t < start + duration);
  }
  [[nodiscard]] bool Targets(NodeId n) const {
    return !node.valid() || node == n;
  }

  friend bool operator==(const GreyFailureSpec& a, const GreyFailureSpec& b) {
    return a.kind == b.kind && a.probability == b.probability &&
           a.min_delay == b.min_delay && a.max_delay == b.max_delay &&
           a.start == b.start && a.duration == b.duration && a.node == b.node;
  }
};

/// A set of grey-failure specs evaluated in declaration order: the first
/// spec that matches (window covers issue time, targets the switch) and
/// wins its Bernoulli draw decides the rule's fate; later specs draw only
/// if earlier ones miss. Empty = healthy dataplane, zero cost.
struct GreyFailureModel {
  std::vector<GreyFailureSpec> specs;

  [[nodiscard]] bool enabled() const { return !specs.empty(); }

  /// Rejects probabilities outside [0, 1], negative or inverted delay
  /// windows, delayed kinds with a zero-width window, a negative active
  /// window, and any NaN or infinite value. Throws FaultPlanError naming
  /// the first offending spec.
  const GreyFailureModel& Validate() const;

  friend bool operator==(const GreyFailureModel& a, const GreyFailureModel& b) {
    return a.specs == b.specs;
  }
};

/// Outcome of issuing one rule through a grey model.
struct GreyOutcome {
  /// kApplied: rule applied immediately and stays. Otherwise the matching
  /// GreyKind (kStraggler/kRuleLoss carry `delay`).
  enum class Kind : std::uint8_t { kApplied, kAckLie, kStraggler, kRuleLoss };
  Kind kind = Kind::kApplied;
  /// kStraggler: ack-to-apply delay. kRuleLoss: apply-to-eviction delay.
  Seconds delay = 0.0;
};

/// Draws one rule's fate from `model` for a rule issued to `node` at `now`.
/// Specs are tried in declaration order; draw count therefore depends only
/// on (model, node, now, rng state) — deterministic. Used both for fresh
/// installs and for the reconciler's repair re-issues (a repair goes
/// through the same unreliable pipeline that caused the drift).
[[nodiscard]] GreyOutcome SampleGrey(const GreyFailureModel& model, NodeId node,
                                     Seconds now, Rng& rng);

/// Parses one spec from its compact form
/// `kind:prob[:min:max[:start:dur[:node]]]` where kind is one of
/// `acklie|straggler|loss` (2, 4, 6, or 7 colon-separated fields; `node`
/// of -1 targets all switches). Throws FaultPlanError on malformed input.
[[nodiscard]] GreyFailureSpec ParseGreySpec(const std::string& text);

/// Shortest compact form that round-trips through ParseGreySpec.
[[nodiscard]] std::string FormatGreySpec(const GreyFailureSpec& spec);

/// Parses a `+`-joined spec list (the `--grey=` flag / chaos-artifact
/// format), e.g. `acklie:0.3+loss:0.1:1:4`. Empty input = empty model.
[[nodiscard]] GreyFailureModel ParseGreyModel(const std::string& text);

/// `+`-joined FormatGreySpec of every spec; round-trips via ParseGreyModel.
[[nodiscard]] std::string FormatGreyModel(const GreyFailureModel& model);

/// Everything the simulator needs to run under faults: the incident
/// schedule, the flaky-install model (baseline + storm windows), the
/// retry/backoff policy for failed installs, the overload-cascade model,
/// the grey-failure model, and an optional controller-crash point.
/// Disabled (the default) costs nothing on the hot path.
struct FaultConfig {
  FaultPlan plan;
  FlakyInstallModel flaky;
  /// Correlated flaky-install storms; inside a storm window the storm's
  /// model replaces `flaky`.
  std::vector<FlakyStorm> storms;
  RetryPolicy retry;
  CascadeConfig cascade;
  /// Silent dataplane divergence: ack-lies, stragglers, rule loss
  /// (repaired by recon::Reconciler when SimConfig::recon is enabled).
  GreyFailureModel grey;
  /// Controller-crash injection; orthogonal to `enabled()` (a crash can be
  /// injected with a perfectly healthy data plane).
  CrashSpec crash;

  [[nodiscard]] bool enabled() const {
    return !plan.empty() || flaky.enabled() || !storms.empty() ||
           cascade.enabled() || grey.enabled();
  }
};

/// Shape of a randomly generated link-outage plan.
struct RandomLinkFaultOptions {
  /// Number of distinct cables to fail.
  std::size_t failures = 2;
  /// First failure time; subsequent failures are `spacing` apart.
  Seconds first_failure = 1.0;
  Seconds spacing = 2.0;
  /// How long each cable stays down. <= 0 means it never comes back.
  Seconds outage = 4.0;
  /// Restrict victims to fabric links (neither endpoint a host) — host
  /// uplinks have no alternative path, so failing one strands its flows.
  bool fabric_only = true;
};

/// Samples `failures` distinct victim cables from `graph` via `rng` and
/// schedules their outages. Deterministic in (graph, options, rng state).
[[nodiscard]] FaultPlan MakeRandomLinkFaultPlan(
    const topo::Graph& graph, const RandomLinkFaultOptions& options, Rng& rng);

/// Shape of a randomly generated correlated-failure plan over an SRLG
/// catalog: `incidents` groups are sampled without replacement; each becomes
/// a pod-power-style group outage or (with `drain_probability`) a rolling
/// maintenance drain.
struct RandomSrlgFaultOptions {
  std::size_t incidents = 1;
  Seconds first_failure = 1.0;
  Seconds spacing = 3.0;
  /// Group-outage duration (must be > 0: chaos scenarios need recovery to
  /// happen inside the run to be judged).
  Seconds outage = 3.0;
  /// Probability an incident is a rolling drain instead of a group outage.
  double drain_probability = 0.3;
  /// Stagger between members of a rolling drain.
  Seconds drain_stagger = 0.5;
};

/// Samples `incidents` distinct groups from `catalog` via `rng` and
/// schedules correlated incidents over them. Deterministic in
/// (catalog, options, rng state). Groups are declared in the plan in the
/// order sampled.
[[nodiscard]] FaultPlan MakeRandomSrlgFaultPlan(
    const std::vector<SharedRiskGroup>& catalog,
    const RandomSrlgFaultOptions& options, Rng& rng);

}  // namespace nu::fault
