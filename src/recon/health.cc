#include "recon/health.h"

#include <algorithm>

#include "common/check.h"

namespace nu::recon {

const char* ToString(HealthLevel level) {
  switch (level) {
    case HealthLevel::kHealthy:
      return "healthy";
    case HealthLevel::kSuspect:
      return "suspect";
    case HealthLevel::kDegraded:
      return "degraded";
    case HealthLevel::kQuarantined:
      return "quarantined";
  }
  return "?";
}

HealthLevel SwitchHealthTracker::LevelFor(double score) const {
  if (score >= config_.quarantine_threshold) return HealthLevel::kQuarantined;
  if (score >= config_.degrade_threshold) return HealthLevel::kDegraded;
  if (score >= config_.suspect_threshold) return HealthLevel::kSuspect;
  return HealthLevel::kHealthy;
}

HealthLevel SwitchHealthTracker::Fold(Entry& entry, bool incident) {
  entry.score = config_.ewma_alpha * (incident ? 1.0 : 0.0) +
                (1.0 - config_.ewma_alpha) * entry.score;
  if (entry.level == HealthLevel::kQuarantined) return entry.level;  // latched
  const HealthLevel next = LevelFor(entry.score);
  if (next == entry.level) return entry.level;
  const bool was_usable = entry.level < HealthLevel::kDegraded;
  const bool now_usable = next < HealthLevel::kDegraded;
  if (entry.level == HealthLevel::kDegraded) --degraded_;
  if (next == HealthLevel::kDegraded) {
    ++degraded_;
    ++ever_degraded_;
  }
  if (next == HealthLevel::kQuarantined) ++quarantined_;
  entry.level = next;
  if (was_usable != now_usable) ++epoch_;
  return entry.level;
}

namespace {

/// The first of the ascending `entries` whose node is not below `node`.
template <typename Entries>
auto LowerBound(Entries& entries, NodeId node) {
  return std::lower_bound(
      entries.begin(), entries.end(), node.value(),
      [](const auto& e, NodeId::rep_type rep) { return e.node < rep; });
}

}  // namespace

HealthLevel SwitchHealthTracker::Observe(NodeId node, bool incident) {
  const auto it = LowerBound(entries_, node);
  if (it == entries_.end() || it->node != node.value()) {
    return Fold(*entries_.insert(it, Entry{node.value()}), incident);
  }
  return Fold(*it, incident);
}

const SwitchHealthTracker::Entry* SwitchHealthTracker::Find(
    NodeId node) const {
  const auto it = LowerBound(entries_, node);
  return it != entries_.end() && it->node == node.value() ? &*it : nullptr;
}

HealthLevel SwitchHealthTracker::LevelOf(NodeId node) const {
  const Entry* entry = Find(node);
  return entry == nullptr ? HealthLevel::kHealthy : entry->level;
}

double SwitchHealthTracker::ScoreOf(NodeId node) const {
  const Entry* entry = Find(node);
  return entry == nullptr ? 0.0 : entry->score;
}

template <typename Ar, typename Self>
void SwitchHealthTracker::Section(Ar& ar, Self& self) {
  ar.Seq(self.entries_, [](Ar& a, auto& entry) {
    a.U32(entry.node);
    a.F64(entry.score);
    a.Enum(entry.level, HealthLevel::kQuarantined);
  });
  // U64, not Size: these are counters, not length prefixes, and Size()
  // reads reject values larger than the remaining input.
  ar.U64(self.epoch_, self.degraded_, self.quarantined_, self.ever_degraded_);
  if constexpr (Ar::kLoading) {
    const std::vector<Entry>& entries = self.entries_;
    ar.Check(std::adjacent_find(entries.begin(), entries.end(),
                                [](const Entry& x, const Entry& y) {
                                  return x.node >= y.node;
                                }) == entries.end(),
             "health entries not ascending and unique");
    const auto at = [&entries](HealthLevel level) {
      return static_cast<std::size_t>(std::count_if(
          entries.begin(), entries.end(),
          [level](const Entry& e) { return e.level == level; }));
    };
    ar.Check(self.degraded_ == at(HealthLevel::kDegraded) &&
                 self.quarantined_ == at(HealthLevel::kQuarantined),
             "health counts disagree with levels");
  }
}

void SwitchHealthTracker::SaveState(BinWriter& w) const { Section(w, *this); }
void SwitchHealthTracker::LoadState(BinReader& r) { Section(r, *this); }

bool operator==(const SwitchHealthTracker& a, const SwitchHealthTracker& b) {
  return a.epoch_ == b.epoch_ && a.degraded_ == b.degraded_ &&
         a.quarantined_ == b.quarantined_ &&
         a.ever_degraded_ == b.ever_degraded_ && a.entries_ == b.entries_;
}

}  // namespace nu::recon
