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
  // switches already tracked — clean observations decay old suspicion.
  // Iterate a merged ascending id list so the order (and therefore level
  // transitions and the epoch counter) is canonical.
  std::vector<NodeId::rep_type> drifting;
  drifting.reserve(drift.size());
  for (const DriftObservation& obs : drift) {
    if (!obs.flows.empty()) drifting.push_back(obs.node.value());
  }
  std::vector<NodeId::rep_type> scored = drifting;
  health_.ForEach([&](NodeId node, double, HealthLevel) {
    scored.push_back(node.value());
  });
  std::sort(scored.begin(), scored.end());
  scored.erase(std::unique(scored.begin(), scored.end()), scored.end());
  for (const NodeId::rep_type rep : scored) {
    const NodeId node{rep};
    const bool incident =
        std::binary_search(drifting.begin(), drifting.end(), rep);
    const HealthLevel before = health_.LevelOf(node);
    const HealthLevel after = health_.Observe(node, incident);
    if (after == HealthLevel::kQuarantined &&
        before != HealthLevel::kQuarantined) {
      result.quarantine.push_back(node);
      ++stats_.switches_quarantined;
    }
    // Drift streaks for the auditor: consecutive passes at drift.
    if (incident && after != HealthLevel::kQuarantined) {
      ++streaks_[rep];
    } else {
      streaks_.erase(rep);
    }
  }
  stats_.switches_degraded = health_.ever_degraded();
  return result;
}

std::vector<DriftStreak> Reconciler::DriftStreaks() const {
  std::vector<DriftStreak> out;
  out.reserve(streaks_.size());
  for (const auto& [node, passes] : streaks_) {
    out.push_back(DriftStreak{NodeId{node}, passes});
  }
  return out;
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
  for (const auto& [node, passes] : streaks_) {
    w.U32(node);
    w.U64(passes);
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
    const NodeId::rep_type node = r.U32();
    const std::size_t passes = static_cast<std::size_t>(r.U64());
    if (!streaks_.try_emplace(node, passes).second) {
      throw CorruptInput("duplicate streak entry");
    }
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
  return a.health_ == b.health_ &&
         std::equal(a.repair_.begin(), a.repair_.end(), b.repair_.begin(),
                    b.repair_.end(), repair_eq) &&
         a.streaks_ == b.streaks_;
}

}  // namespace nu::recon
