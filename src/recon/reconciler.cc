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

namespace {

void SaveSamples(BinWriter& w, const Samples& samples) {
  w.Size(samples.count());
  for (const double v : samples.values()) w.F64(v);
}

Samples LoadSamples(BinReader& r) {
  const std::size_t count = r.Size();
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) values.push_back(r.F64());
  return Samples(std::move(values));
}

}  // namespace

void Reconciler::SaveState(BinWriter& w) const {
  health_.SaveState(w);
  w.Size(repair_.size());
  for (const auto& [node, state] : repair_) {
    w.U32(node);
    w.U64(state.consecutive_failures);
    w.F64(state.next_attempt);
  }
  w.Size(streaks_.size());
  for (const DriftStreak& streak : streaks_) {
    w.U32(streak.node.value());
    w.U64(streak.passes);
  }
  w.U64(stats_.passes);
  w.U64(stats_.rules_issued);
  w.U64(stats_.rules_verified);
  w.U64(stats_.ack_lies);
  w.U64(stats_.stragglers);
  w.U64(stats_.rules_lost);
  w.U64(stats_.drift_detected);
  w.U64(stats_.repair_attempts);
  w.U64(stats_.repairs_succeeded);
  w.U64(stats_.repair_failures);
  w.U64(stats_.rules_abandoned);
  w.U64(stats_.switches_degraded);
  w.U64(stats_.switches_quarantined);
  SaveSamples(w, stats_.repair_latency);
}

void Reconciler::LoadState(BinReader& r) {
  health_.LoadState(r);
  repair_.clear();
  const std::size_t repairs = r.Size();
  for (std::size_t i = 0; i < repairs; ++i) {
    const NodeId::rep_type node = r.U32();
    RepairState state;
    state.consecutive_failures = static_cast<std::size_t>(r.U64());
    state.next_attempt = r.F64();
    if (!repair_.try_emplace(node, state).second) {
      throw CorruptInput("duplicate repair entry");
    }
  }
  streaks_.clear();
  const std::size_t streaks = r.Size();
  for (std::size_t i = 0; i < streaks; ++i) {
    const NodeId node{r.U32()};
    const std::size_t passes = static_cast<std::size_t>(r.U64());
    if (!streaks_.empty() && !(streaks_.back().node < node)) {
      throw CorruptInput("streak entries not ascending and unique");
    }
    // A pass keeps a streak only on a tracked, unquarantined switch.
    if (passes == 0 || !health_.Tracks(node) ||
        health_.LevelOf(node) == HealthLevel::kQuarantined) {
      throw CorruptInput("streak on a switch the pass would not keep");
    }
    streaks_.push_back(DriftStreak{node, passes});
  }
  stats_ = ReconStats{};
  stats_.passes = r.U64();
  stats_.rules_issued = r.U64();
  stats_.rules_verified = r.U64();
  stats_.ack_lies = r.U64();
  stats_.stragglers = r.U64();
  stats_.rules_lost = r.U64();
  stats_.drift_detected = r.U64();
  stats_.repair_attempts = r.U64();
  stats_.repairs_succeeded = r.U64();
  stats_.repair_failures = r.U64();
  stats_.rules_abandoned = r.U64();
  stats_.switches_degraded = r.U64();
  stats_.switches_quarantined = r.U64();
  stats_.repair_latency = LoadSamples(r);
}

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
