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

void SwitchHealthTracker::SaveState(BinWriter& w) const {
  w.Size(entries_.size());
  for (const Entry& entry : entries_) {
    w.U32(entry.node);
    w.F64(entry.score);
    w.U8(static_cast<std::uint8_t>(entry.level));
  }
  w.U64(epoch_);
  // U64, not Size: these are counters, not length prefixes, and Size()
  // reads reject values larger than the remaining input.
  w.U64(degraded_);
  w.U64(quarantined_);
  w.U64(ever_degraded_);
}

void SwitchHealthTracker::LoadState(BinReader& r) {
  entries_.clear();
  const std::size_t count = r.Size();
  std::size_t degraded = 0;
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Entry entry;
    entry.node = r.U32();
    entry.score = r.F64();
    const std::uint8_t level = r.U8();
    if (level > static_cast<std::uint8_t>(HealthLevel::kQuarantined)) {
      throw CorruptInput("bad health level");
    }
    entry.level = static_cast<HealthLevel>(level);
    if (!entries_.empty() && entries_.back().node >= entry.node) {
      throw CorruptInput("health entries not ascending and unique");
    }
    if (entry.level == HealthLevel::kDegraded) ++degraded;
    if (entry.level == HealthLevel::kQuarantined) ++quarantined;
    entries_.push_back(entry);
  }
  epoch_ = r.U64();
  degraded_ = static_cast<std::size_t>(r.U64());
  quarantined_ = static_cast<std::size_t>(r.U64());
  ever_degraded_ = static_cast<std::size_t>(r.U64());
  if (degraded_ != degraded || quarantined_ != quarantined) {
    throw CorruptInput("health counts disagree with levels");
  }
}

bool operator==(const SwitchHealthTracker& a, const SwitchHealthTracker& b) {
  return a.epoch_ == b.epoch_ && a.degraded_ == b.degraded_ &&
         a.quarantined_ == b.quarantined_ &&
         a.ever_degraded_ == b.ever_degraded_ && a.entries_ == b.entries_;
}

}  // namespace nu::recon
