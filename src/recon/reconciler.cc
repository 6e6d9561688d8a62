#include "recon/reconciler.h"

#include <algorithm>

#include "common/check.h"
#include "topo/graph.h"

namespace nu::recon {

Reconciler::Reconciler(ReconcilerConfig config)
    : config_(config), health_(config.health) {}

std::vector<DriftObservation> Reconciler::CollectDrift(
    const net::DataplaneState& dp) {
  std::vector<DriftObservation> out;
  for (const NodeId node : dp.DriftingNodes()) {
    out.push_back(DriftObservation{node, dp.DivergentFlowsOn(node)});
  }
  return out;
}

void Reconciler::Prune(const net::NetworkView& network,
                       net::DataplaneState& dp) {
  // Collect stale entries first: mutating while iterating the divergence
  // maps would invalidate the walk.
  std::vector<std::pair<NodeId, FlowId>> stale;
  dp.ForEach([&](NodeId node, FlowId flow, const net::DivergentRule&) {
    if (!network.HasFlow(flow)) {
      stale.emplace_back(node, flow);
      return;
    }
    if (!network.NodeUp(node)) {
      // The switch is down (visible fault): its flows were already
      // removed or rerouted, and a down switch holds no rules to drift.
      stale.emplace_back(node, flow);
      return;
    }
    const topo::Path& path = network.PathOf(flow);
    if (std::find(path.nodes.begin(), path.nodes.end(), node) ==
        path.nodes.end()) {
      stale.emplace_back(node, flow);  // rerouted off this switch
    }
  });
  for (const auto& [node, flow] : stale) dp.Resolve(node, flow);
}

PassResult Reconciler::Pass(const std::vector<DriftObservation>& drift,
                            net::DataplaneState& dp,
                            const fault::GreyFailureModel& grey, Seconds now,
                            Rng& rng) {
  PassResult result;
  ++stats_.passes;

  // Repair sweep, ascending switch order. Each switch's repairs happen
  // under its own backoff budget; draws are in (switch, flow) order.
  for (const DriftObservation& obs : drift) {
    const NodeId node = obs.node;
    if (obs.flows.empty()) continue;
    ++result.drifting_switches;
    RepairState& repair = repair_[node.value()];
    const bool backoff_active = now < repair.next_attempt;
    bool any_failure = false;
    for (const FlowId flow : obs.flows) {
      const net::DivergentRule* entry = dp.Find(node, flow);
      if (entry == nullptr) continue;
      if (!entry->detected) {
        dp.MarkDetected(node, flow);
        ++stats_.drift_detected;
      }
      if (entry->abandoned || entry->pending_apply) continue;
      if (backoff_active) continue;
      // Re-issue the rule through the same unreliable pipeline.
      const std::uint32_t attempts = dp.RecordRepairAttempt(node, flow);
      ++stats_.repair_attempts;
      const fault::GreyOutcome out = fault::SampleGrey(grey, node, now, rng);
      switch (out.kind) {
        case fault::GreyOutcome::Kind::kApplied:
          ++stats_.repairs_succeeded;
          ++stats_.rules_verified;
          stats_.repair_latency.Add(now - entry->since);
          dp.Resolve(node, flow);
          break;
        case fault::GreyOutcome::Kind::kAckLie:
          ++stats_.repair_failures;
          any_failure = true;
          if (attempts >= config_.retry.max_attempts) {
            dp.MarkAbandoned(node, flow);
            ++stats_.rules_abandoned;
          }
          break;
        case fault::GreyOutcome::Kind::kStraggler:
          // In flight: the apply lands later; do not re-issue meanwhile.
          dp.SetPendingApply(node, flow, true);
          result.deferred.push_back(DeferredGrey{
              DeferredGrey::Kind::kApply, node, flow, now + out.delay});
          break;
        case fault::GreyOutcome::Kind::kRuleLoss:
          // Applied now (repair succeeded) but evicted again later.
          ++stats_.repairs_succeeded;
          ++stats_.rules_verified;
          stats_.repair_latency.Add(now - entry->since);
          dp.Resolve(node, flow);
          result.deferred.push_back(DeferredGrey{DeferredGrey::Kind::kLoss,
                                                 node, flow, now + out.delay});
          break;
      }
    }
    if (any_failure) {
      ++repair.consecutive_failures;
      repair.next_attempt =
          now + config_.retry.BackoffDelay(repair.consecutive_failures, rng);
    } else if (!backoff_active) {
      repair.consecutive_failures = 0;
      repair.next_attempt = 0.0;
    }
  }

  // Health scoring over the union of switches seen drifting this pass and
  // switches already tracked — clean observations decay old suspicion. Both
  // lists are ascending, so one merge visits the union in canonical order
  // (which fixes level transitions and the epoch counter), and the drift
  // streaks are rebuilt alongside from the previous ascending list.
  std::vector<NodeId> drifting;
  drifting.reserve(drift.size());
  for (const DriftObservation& obs : drift) {
    if (obs.flows.empty()) continue;
    NU_EXPECTS(drifting.empty() || drifting.back() < obs.node);
    drifting.push_back(obs.node);
  }
  std::vector<DriftStreak> streaks;
  std::size_t prior = 0;  // cursor into streaks_
  health_.ObservePass(drifting, [&](NodeId node, bool incident,
                                    HealthLevel before, HealthLevel after) {
    if (after == HealthLevel::kQuarantined &&
        before != HealthLevel::kQuarantined) {
      result.quarantine.push_back(node);
      ++stats_.switches_quarantined;
    }
    // Drift streaks for the auditor: consecutive passes at drift.
    while (prior < streaks_.size() && streaks_[prior].node < node) ++prior;
    if (incident && after != HealthLevel::kQuarantined) {
      const bool continued =
          prior < streaks_.size() && streaks_[prior].node == node;
      streaks.push_back(
          DriftStreak{node, continued ? streaks_[prior].passes + 1 : 1});
    }
  });
  streaks_ = std::move(streaks);
  stats_.switches_degraded = health_.ever_degraded();
  return result;
}

template <typename Ar, typename Self>
void Reconciler::Section(Ar& ar, Self& self) {
  ar.Part(self.health_);
  ar.Seq(self.repair_, [](Ar& a, auto& entry) {
    a.U32(entry.first);
    a.U64(entry.second.consecutive_failures);
    a.F64(entry.second.next_attempt);
  });
  ar.Seq(self.streaks_, [](Ar& a, auto& streak) {
    a.U32(streak.node);
    a.U64(streak.passes);
  });
  if constexpr (Ar::kLoading) {
    const std::vector<DriftStreak>& streaks = self.streaks_;
    ar.Check(std::adjacent_find(streaks.begin(), streaks.end(),
                                [](const DriftStreak& x, const DriftStreak& y) {
                                  return !(x.node < y.node);
                                }) == streaks.end(),
             "streak entries not ascending and unique");
    // A pass keeps a streak only on a tracked, unquarantined switch.
    for (const DriftStreak& streak : streaks) {
      ar.Check(streak.passes > 0 && self.health_.Tracks(streak.node) &&
                   self.health_.LevelOf(streak.node) !=
                       HealthLevel::kQuarantined,
               "streak on a switch the pass would not keep");
    }
    self.stats_ = ReconStats{};  // residual_divergence is set at run end
  }
  auto& stats = self.stats_;
  ar.U64(stats.passes, stats.rules_issued, stats.rules_verified,
         stats.ack_lies, stats.stragglers, stats.rules_lost,
         stats.drift_detected, stats.repair_attempts, stats.repairs_succeeded,
         stats.repair_failures, stats.rules_abandoned, stats.switches_degraded,
         stats.switches_quarantined);
  ar.Part(stats.repair_latency);
}

void Reconciler::SaveState(BinWriter& w) const { Section(w, *this); }
void Reconciler::LoadState(BinReader& r) { Section(r, *this); }

bool operator==(const Reconciler& a, const Reconciler& b) {
  auto repair_eq = [](const auto& x, const auto& y) {
    return x.first == y.first &&
           x.second.consecutive_failures == y.second.consecutive_failures &&
           x.second.next_attempt == y.second.next_attempt;
  };
  auto streak_eq = [](const DriftStreak& x, const DriftStreak& y) {
    return x.node == y.node && x.passes == y.passes;
  };
  return a.health_ == b.health_ &&
         std::equal(a.repair_.begin(), a.repair_.end(), b.repair_.begin(),
                    b.repair_.end(), repair_eq) &&
         std::equal(a.streaks_.begin(), a.streaks_.end(), b.streaks_.begin(),
                    b.streaks_.end(), streak_eq);
}

}  // namespace nu::recon
