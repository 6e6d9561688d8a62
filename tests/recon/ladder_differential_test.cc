// Differential tests pinning the flat health ladder and the one-merge
// reconcile pass to the map-based implementations they replaced. The
// reference copies below are the previous SwitchHealthTracker (a std::map
// per switch) and the previous Reconciler pass (a fresh sorted, de-duplicated
// id list per pass, map lookups per switch, a streak map) verbatim, cut to
// what a pass, the streak read and a snapshot use. Under random drift, grey
// outcomes, quarantine drains and mid-run snapshot restores, both must
// reach the same levels, epochs, quarantine lists, drift streaks and
// snapshot bytes after every pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "net/dataplane.h"
#include "recon/health.h"
#include "recon/reconciler.h"

namespace nu::recon {
namespace {

// --- Reference: the map-based ladder and pass, copied verbatim ------------

namespace reference {

class SwitchHealthTracker {
 public:
  explicit SwitchHealthTracker(HealthConfig config) : config_(config) {}

  HealthLevel Observe(NodeId node, bool incident) {
    State& state = states_[node.value()];
    state.score = config_.ewma_alpha * (incident ? 1.0 : 0.0) +
                  (1.0 - config_.ewma_alpha) * state.score;
    if (state.level == HealthLevel::kQuarantined) return state.level;
    const HealthLevel next = LevelFor(state.score);
    if (next == state.level) return state.level;
    const bool was_usable = state.level < HealthLevel::kDegraded;
    const bool now_usable = next < HealthLevel::kDegraded;
    if (state.level == HealthLevel::kDegraded) --degraded_;
    if (next == HealthLevel::kDegraded) {
      ++degraded_;
      ++ever_degraded_;
    }
    if (next == HealthLevel::kQuarantined) ++quarantined_;
    state.level = next;
    if (was_usable != now_usable) ++epoch_;
    return state.level;
  }

  HealthLevel LevelOf(NodeId node) const {
    const auto it = states_.find(node.value());
    return it == states_.end() ? HealthLevel::kHealthy : it->second.level;
  }

  double ScoreOf(NodeId node) const {
    const auto it = states_.find(node.value());
    return it == states_.end() ? 0.0 : it->second.score;
  }

  std::uint64_t epoch() const { return epoch_; }
  std::size_t degraded_count() const { return degraded_; }
  std::size_t quarantined_count() const { return quarantined_; }
  std::size_t ever_degraded() const { return ever_degraded_; }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [node, state] : states_) {
      fn(NodeId{node}, state.score, state.level);
    }
  }

  void SaveState(BinWriter& w) const {
    w.Size(states_.size());
    for (const auto& [node, state] : states_) {
      w.U32(node);
      w.F64(state.score);
      w.U8(static_cast<std::uint8_t>(state.level));
    }
    w.U64(epoch_);
    w.U64(degraded_);
    w.U64(quarantined_);
    w.U64(ever_degraded_);
  }

  void LoadState(BinReader& r) {
    states_.clear();
    const std::size_t count = r.Size();
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId::rep_type node = r.U32();
      State state;
      state.score = r.F64();
      const std::uint8_t level = r.U8();
      if (level > static_cast<std::uint8_t>(HealthLevel::kQuarantined)) {
        throw CorruptInput("bad health level");
      }
      state.level = static_cast<HealthLevel>(level);
      const auto [it, inserted] = states_.try_emplace(node, state);
      if (!inserted) throw CorruptInput("duplicate health entry");
    }
    epoch_ = r.U64();
    degraded_ = static_cast<std::size_t>(r.U64());
    quarantined_ = static_cast<std::size_t>(r.U64());
    ever_degraded_ = static_cast<std::size_t>(r.U64());
  }

 private:
  struct State {
    double score = 0.0;
    HealthLevel level = HealthLevel::kHealthy;
  };

  HealthLevel LevelFor(double score) const {
    if (score >= config_.quarantine_threshold) {
      return HealthLevel::kQuarantined;
    }
    if (score >= config_.degrade_threshold) return HealthLevel::kDegraded;
    if (score >= config_.suspect_threshold) return HealthLevel::kSuspect;
    return HealthLevel::kHealthy;
  }

  HealthConfig config_;
  std::map<NodeId::rep_type, State> states_;
  std::uint64_t epoch_ = 0;
  std::size_t degraded_ = 0;
  std::size_t quarantined_ = 0;
  std::size_t ever_degraded_ = 0;
};

class Reconciler {
 public:
  explicit Reconciler(ReconcilerConfig config)
      : config_(config), health_(config.health) {}

  const SwitchHealthTracker& health() const { return health_; }

  PassResult Pass(const std::vector<DriftObservation>& drift,
                  net::DataplaneState& dp,
                  const fault::GreyFailureModel& grey, Seconds now,
                  Rng& rng) {
    PassResult result;
    ++stats_.passes;

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
            dp.SetPendingApply(node, flow, true);
            result.deferred.push_back(DeferredGrey{
                DeferredGrey::Kind::kApply, node, flow, now + out.delay});
            break;
          case fault::GreyOutcome::Kind::kRuleLoss:
            ++stats_.repairs_succeeded;
            ++stats_.rules_verified;
            stats_.repair_latency.Add(now - entry->since);
            dp.Resolve(node, flow);
            result.deferred.push_back(DeferredGrey{
                DeferredGrey::Kind::kLoss, node, flow, now + out.delay});
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
      if (incident && after != HealthLevel::kQuarantined) {
        ++streaks_[rep];
      } else {
        streaks_.erase(rep);
      }
    }
    stats_.switches_degraded = health_.ever_degraded();
    return result;
  }

  std::vector<DriftStreak> DriftStreaks() const {
    std::vector<DriftStreak> out;
    out.reserve(streaks_.size());
    for (const auto& [node, passes] : streaks_) {
      out.push_back(DriftStreak{NodeId{node}, passes});
    }
    return out;
  }

  void SaveState(BinWriter& w) const {
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
    w.Size(stats_.repair_latency.count());
    for (const double v : stats_.repair_latency.values()) w.F64(v);
  }

  void LoadState(BinReader& r) {
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
    const std::size_t count = r.Size();
    std::vector<double> values;
    values.reserve(count);
    for (std::size_t i = 0; i < count; ++i) values.push_back(r.F64());
    stats_.repair_latency = Samples(std::move(values));
  }

 private:
  struct RepairState {
    std::size_t consecutive_failures = 0;
    Seconds next_attempt = 0.0;
  };

  ReconcilerConfig config_;
  SwitchHealthTracker health_;
  ReconStats stats_;
  std::map<NodeId::rep_type, RepairState> repair_;
  std::map<NodeId::rep_type, std::size_t> streaks_;
};

}  // namespace reference

// --- Helpers ----------------------------------------------------------------

constexpr std::size_t kSwitches = 24;

std::string Bytes(const auto& state) {
  BinWriter w;
  state.SaveState(w);
  return w.buffer();
}

void ExpectSameLadder(const SwitchHealthTracker& got,
                      const reference::SwitchHealthTracker& want,
                      const std::string& where) {
  for (std::size_t n = 0; n < kSwitches; ++n) {
    const NodeId node{static_cast<NodeId::rep_type>(n)};
    ASSERT_EQ(got.LevelOf(node), want.LevelOf(node)) << where;
    ASSERT_EQ(got.ScoreOf(node), want.ScoreOf(node)) << where;
  }
  ASSERT_EQ(got.epoch(), want.epoch()) << where;
  ASSERT_EQ(got.degraded_count(), want.degraded_count()) << where;
  ASSERT_EQ(got.quarantined_count(), want.quarantined_count()) << where;
  ASSERT_EQ(got.ever_degraded(), want.ever_degraded()) << where;
  ASSERT_EQ(Bytes(got), Bytes(want)) << where;
}

/// A ladder config per seed: the default ladder, a fast one, and one with
/// quarantine disabled so streaks run long.
HealthConfig LadderFor(std::uint64_t seed) {
  HealthConfig config;
  if (seed % 3 == 1) config.ewma_alpha = 0.5;
  if (seed % 3 == 2) config.quarantine_threshold = 1.1;
  return config;
}

// --- Tests ------------------------------------------------------------------

TEST(LadderDifferentialTest, ObserveMatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    Rng rng(seed);
    SwitchHealthTracker got(LadderFor(seed));
    reference::SwitchHealthTracker want(LadderFor(seed));
    for (int step = 0; step < 2000; ++step) {
      const NodeId node{static_cast<NodeId::rep_type>(rng.Index(kSwitches))};
      // Low ids lie often, so some of them climb the whole ladder.
      const bool incident = rng.Bernoulli(node.value() < 6 ? 0.7 : 0.2);
      ASSERT_EQ(got.Observe(node, incident), want.Observe(node, incident));
      ExpectSameLadder(got, want,
                       "seed " + std::to_string(seed) + " step " +
                           std::to_string(step));
    }
  }
}

TEST(LadderDifferentialTest, PassMatchesMapReference) {
  const fault::GreyFailureModel grey = fault::ParseGreyModel(
      "acklie:0.35+straggler:0.15:0.1:0.5+loss:0.1:0.5:1.5");
  std::size_t quarantined = 0;
  std::size_t longest_streak = 0;
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    ReconcilerConfig config;
    config.enabled = true;
    config.retry.max_attempts = 3;
    config.health = LadderFor(seed);
    Reconciler got(config);
    reference::Reconciler want(config);
    net::DataplaneState got_dp;
    net::DataplaneState want_dp;
    Rng got_rng(seed * 7919);
    Rng want_rng(seed * 7919);
    Rng rng(seed);
    std::vector<DeferredGrey> deferred;
    FlowId::rep_type next_flow = 0;
    Seconds now = 0.0;
    for (int pass = 0; pass < 400; ++pass) {
      const std::string where =
          "seed " + std::to_string(seed) + " pass " + std::to_string(pass);
      now += 0.25;
      // Fresh drift, identical on both dataplanes: a burst of ack-lies
      // concentrated on the low switch ids, plus sparse noise elsewhere.
      const std::size_t burst = rng.Index(6);
      for (std::size_t i = 0; i < burst; ++i) {
        const NodeId node{static_cast<NodeId::rep_type>(
            rng.Bernoulli(0.6) ? rng.Index(4) : rng.Index(kSwitches))};
        const FlowId flow{next_flow++};
        got_dp.AddDivergence(node, flow, net::RuleFault::kAckLie, now);
        want_dp.AddDivergence(node, flow, net::RuleFault::kAckLie, now);
      }
      // Land the previous pass's deferred grey occurrences.
      for (const DeferredGrey& d : deferred) {
        for (net::DataplaneState* dp : {&got_dp, &want_dp}) {
          if (d.kind == DeferredGrey::Kind::kApply) {
            if (dp->IsDivergent(d.node, d.flow)) dp->Resolve(d.node, d.flow);
          } else if (!dp->IsDivergent(d.node, d.flow)) {
            dp->AddDivergence(d.node, d.flow, net::RuleFault::kRuleLoss, now);
          }
        }
      }
      // A mid-run crash: both sides restart from the production snapshot.
      if (rng.Bernoulli(0.05)) {
        const std::string bytes = Bytes(got);
        BinReader a(bytes);
        got = Reconciler(config);
        got.LoadState(a);
        BinReader b(bytes);
        want = reference::Reconciler(config);
        want.LoadState(b);
      }

      const PassResult got_pass =
          got.Pass(Reconciler::CollectDrift(got_dp), got_dp, grey, now,
                   got_rng);
      const PassResult want_pass =
          want.Pass(Reconciler::CollectDrift(want_dp), want_dp, grey, now,
                    want_rng);

      ASSERT_EQ(got_pass.quarantine, want_pass.quarantine) << where;
      ASSERT_EQ(got_pass.drifting_switches, want_pass.drifting_switches)
          << where;
      ASSERT_EQ(got_pass.deferred.size(), want_pass.deferred.size()) << where;
      for (std::size_t i = 0; i < got_pass.deferred.size(); ++i) {
        ASSERT_EQ(got_pass.deferred[i].kind, want_pass.deferred[i].kind);
        ASSERT_EQ(got_pass.deferred[i].node, want_pass.deferred[i].node);
        ASSERT_EQ(got_pass.deferred[i].flow, want_pass.deferred[i].flow);
        ASSERT_EQ(got_pass.deferred[i].time, want_pass.deferred[i].time);
      }
      ExpectSameLadder(got.health(), want.health(), where);
      const std::vector<DriftStreak> got_streaks = got.DriftStreaks();
      const std::vector<DriftStreak> want_streaks = want.DriftStreaks();
      ASSERT_EQ(got_streaks.size(), want_streaks.size()) << where;
      for (std::size_t i = 0; i < got_streaks.size(); ++i) {
        ASSERT_EQ(got_streaks[i].node, want_streaks[i].node) << where;
        ASSERT_EQ(got_streaks[i].passes, want_streaks[i].passes) << where;
        longest_streak = std::max(longest_streak, got_streaks[i].passes);
      }
      ASSERT_EQ(Bytes(got), Bytes(want)) << where;
      ASSERT_TRUE(got_dp == want_dp) << where;

      // The simulator drains a newly quarantined switch's divergence.
      for (const NodeId node : got_pass.quarantine) {
        got_dp.DropNode(node);
        want_dp.DropNode(node);
      }
      quarantined += got_pass.quarantine.size();
      deferred = got_pass.deferred;
    }
  }
  // The sequences reach the ladder's top and hold drift for many passes.
  EXPECT_GT(quarantined, 5u);
  EXPECT_GT(longest_streak, 5u);
}

// --- Crafted snapshots ------------------------------------------------------

/// A health section with one entry per (node, level) and the given counts.
std::string HealthPayload(
    const std::vector<std::pair<NodeId::rep_type, HealthLevel>>& entries,
    std::uint64_t degraded, std::uint64_t quarantined) {
  BinWriter w;
  w.Size(entries.size());
  for (const auto& [node, level] : entries) {
    w.U32(node);
    w.F64(0.6);
    w.U8(static_cast<std::uint8_t>(level));
  }
  w.U64(1);  // epoch
  w.U64(degraded);
  w.U64(quarantined);
  w.U64(degraded + quarantined);  // ever degraded
  return w.buffer();
}

TEST(LadderDifferentialTest, LoadRejectsCountsThatDisagreeWithLevels) {
  // degraded_ = 0 beside a degraded switch: the next transition off
  // kDegraded would wrap the count and pin any_unusable() true.
  const std::string bytes =
      HealthPayload({{3, HealthLevel::kDegraded}}, 0, 0);
  SwitchHealthTracker tracker;
  BinReader r(bytes);
  EXPECT_THROW(tracker.LoadState(r), CorruptInput);

  const std::string quarantine =
      HealthPayload({{3, HealthLevel::kQuarantined}}, 0, 2);
  BinReader q(quarantine);
  EXPECT_THROW(tracker.LoadState(q), CorruptInput);

  // The consistent payload loads.
  const std::string good = HealthPayload(
      {{3, HealthLevel::kDegraded}, {5, HealthLevel::kQuarantined}}, 1, 1);
  BinReader g(good);
  tracker.LoadState(g);
  EXPECT_EQ(tracker.LevelOf(NodeId{3}), HealthLevel::kDegraded);
  EXPECT_EQ(tracker.LevelOf(NodeId{5}), HealthLevel::kQuarantined);
  EXPECT_EQ(Bytes(tracker), good);
}

TEST(LadderDifferentialTest, LoadRejectsDuplicateOrUnsortedNodes) {
  const std::string duplicate = HealthPayload(
      {{4, HealthLevel::kSuspect}, {4, HealthLevel::kSuspect}}, 0, 0);
  SwitchHealthTracker tracker;
  BinReader d(duplicate);
  EXPECT_THROW(tracker.LoadState(d), CorruptInput);

  const std::string unsorted = HealthPayload(
      {{9, HealthLevel::kSuspect}, {2, HealthLevel::kSuspect}}, 0, 0);
  BinReader u(unsorted);
  EXPECT_THROW(tracker.LoadState(u), CorruptInput);
}

TEST(LadderDifferentialTest, LoadRejectsStreakOffTheLadder) {
  // A reconciler section: the health entries, no repair state, then one
  // streak on a switch the ladder does not track.
  BinWriter w;
  const std::string health = HealthPayload({{3, HealthLevel::kSuspect}}, 0, 0);
  w.Bytes(health.data(), health.size());
  w.Size(0);  // repair entries
  w.Size(1);  // streaks
  w.U32(8);
  w.U64(2);
  for (int i = 0; i < 13; ++i) w.U64(0);  // stats
  w.Size(0);                              // repair latencies
  Reconciler recon;
  BinReader r(w.buffer());
  EXPECT_THROW(recon.LoadState(r), CorruptInput);
}

}  // namespace
}  // namespace nu::recon
