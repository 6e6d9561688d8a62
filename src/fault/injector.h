// FaultInjector: the runtime side of a FaultPlan. It owns a private Rng
// stream (forked off the run seed) so flaky-install sampling never perturbs
// the scheduler's or churn's random streams — enabling faults changes only
// what faults change, and a fixed seed reproduces the run bit-for-bit.
//
// The injector is deliberately mechanism-only: it tells callers WHICH flows
// a fault strands and HOW LONG an unreliable install takes, but the
// simulator decides what replanning means (re-deferring the victim flows of
// in-flight events onto surviving paths).
#pragma once

#include <span>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/srlg.h"
#include "net/network.h"

namespace nu::fault {

/// Outcome of pushing one install batch through the flaky pipeline with
/// bounded retries. All sampled latencies are folded into the two delay
/// fields so the caller schedules a single occurrence.
struct InstallTrial {
  /// Attempts consumed (1 with a healthy pipeline).
  std::size_t attempts = 1;
  /// False when RetryPolicy::max_attempts were exhausted — the batch must
  /// be rolled back and its flows replanned.
  bool success = true;
  /// Wasted time before the outcome: failed-attempt latencies plus backoff
  /// waits. Zero on first-try success.
  Seconds wasted_delay = 0.0;
  /// Jitter multiplier (>= 1) for the successful attempt's latency;
  /// meaningless when !success.
  double latency_factor = 1.0;
};

class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, std::uint64_t seed);

  /// Runs one install of nominal latency `attempt_latency` through the
  /// flaky model + retry policy. Deterministic per injector stream. `now`
  /// selects the active model: inside a FlakyStorm window the storm's
  /// (usually much worse) model replaces the baseline one. Passing the
  /// default 0.0 is fine for configs without storms — the baseline applies.
  [[nodiscard]] InstallTrial SampleInstall(Seconds attempt_latency,
                                           Seconds now = 0.0);

  [[nodiscard]] const FaultConfig& config() const { return config_; }

  /// Checkpoint access to the private flaky-install stream: restoring it
  /// resumes sampling at exactly the draw where a snapshot was taken.
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const Rng& rng() const { return rng_; }

 private:
  const FaultConfig& config_;
  Rng rng_;
};

/// Flows stranded by `spec` if it fired now: flows crossing either direction
/// of the failing cable, or any link incident to the failing switch. Empty
/// for up-events. Ascending id order (deterministic processing). This
/// overload handles primitive specs only; group specs need the catalog.
[[nodiscard]] std::vector<FlowId> AffectedFlows(const net::Network& network,
                                                const FaultSpec& spec);

/// As above, but also resolves group specs against `groups` (the owning
/// FaultPlan's catalog): the union of flows stranded by every member
/// element, sorted and deduped — the single victim sweep of a correlated
/// incident.
[[nodiscard]] std::vector<FlowId> AffectedFlows(
    const net::Network& network, const FaultSpec& spec,
    std::span<const SharedRiskGroup> groups);

/// Applies the up/down transition of `spec` to the network's fault state
/// (both directions of a cable; the switch node itself). Does NOT remove
/// stranded flows — callers pair this with AffectedFlows and decide each
/// victim's fate (kill, replan) explicitly. Primitive specs only.
void ApplyFaultState(net::Network& network, const FaultSpec& spec);

/// As above, but also resolves group specs: every member node and link
/// (plus reverse twins of member links) flips in ONE topology transition
/// via net::Network::SetElementsUp — a pod power event is one epoch bump,
/// not size(group) of them.
void ApplyFaultState(net::Network& network, const FaultSpec& spec,
                     std::span<const SharedRiskGroup> groups);

}  // namespace nu::fault
