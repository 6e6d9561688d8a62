// Per-switch health scoring for the reconciliation subsystem.
//
// Every reconcile pass scores every switch it has ever suspected: an
// incident (the pass found at least one divergent rule on the switch)
// pushes an EWMA toward 1, a clean observation decays it toward 0. The
// score drives an escalating response ladder (docs/model.md §16):
//
//   kHealthy     score <  suspect_threshold     normal operation
//   kSuspect     score >= suspect_threshold     reprobed every pass
//   kDegraded    score >= degrade_threshold     deprioritized in planning
//                                               (paths through it filtered
//                                               from candidate selection)
//   kQuarantined score >= quarantine_threshold  drained like a switch-down
//                                               fault; LATCHED — lying
//                                               hardware does not earn its
//                                               way back by lying less
//
// This mirrors guard/'s poison-event quarantine one level down: guard
// quarantines an EVENT that keeps missing deadlines, the health tracker
// quarantines a SWITCH that keeps lying about installs.
//
// The tracker is deterministic plain data (a flat entry vector sorted by
// switch id, no draws); `epoch()` bumps whenever any switch crosses the
// kDegraded boundary in either direction so path-provider caches keyed on
// it invalidate exactly when the usable-switch set changes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/binio.h"
#include "common/types.h"

namespace nu::recon {

enum class HealthLevel : std::uint8_t {
  kHealthy,
  kSuspect,
  kDegraded,
  kQuarantined,
};

[[nodiscard]] const char* ToString(HealthLevel level);

struct HealthConfig {
  /// EWMA smoothing: score = alpha * incident + (1 - alpha) * score.
  double ewma_alpha = 0.35;
  double suspect_threshold = 0.2;
  double degrade_threshold = 0.55;
  /// Set above 1.0 to disable quarantine entirely (the score can never
  /// reach it); the auditor's drift bound then catches perma-liars.
  double quarantine_threshold = 0.85;
};

class SwitchHealthTracker {
 public:
  SwitchHealthTracker() = default;
  explicit SwitchHealthTracker(HealthConfig config) : config_(config) {}

  /// Folds one reconcile observation for `node` into its score and
  /// returns the resulting level. Quarantine latches: once reached, the
  /// level never drops regardless of later observations.
  HealthLevel Observe(NodeId node, bool incident);

  /// One reconcile pass: observes every switch in `incidents` (ascending,
  /// unique) with an incident and every other tracked switch clean, in
  /// ascending id order, as one merge of the two ascending lists.
  /// Untracked incident switches join the list. Calls
  /// `fn(NodeId, bool incident, HealthLevel before, HealthLevel after)`
  /// after each observation.
  template <typename Fn>
  void ObservePass(std::span<const NodeId> incidents, Fn&& fn) {
    std::size_t next = 0;
    for (std::size_t i = 0; i < entries_.size() || next < incidents.size();
         ++i) {
      const bool newcomer =
          next < incidents.size() &&
          (i == entries_.size() || incidents[next].value() < entries_[i].node);
      if (newcomer) {
        entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                        Entry{incidents[next].value()});
      }
      Entry& entry = entries_[i];
      const bool incident =
          next < incidents.size() && incidents[next].value() == entry.node;
      if (incident) ++next;
      const HealthLevel before = entry.level;
      fn(NodeId{entry.node}, incident, before, Fold(entry, incident));
    }
  }

  /// kHealthy for switches never observed.
  [[nodiscard]] HealthLevel LevelOf(NodeId node) const;
  /// True once `node` has been observed.
  [[nodiscard]] bool Tracks(NodeId node) const { return Find(node) != nullptr; }
  [[nodiscard]] double ScoreOf(NodeId node) const;

  /// True when paths through `node` may be used for planning (level below
  /// kDegraded). Hosts are never tracked, so they are always usable.
  [[nodiscard]] bool IsUsable(NodeId node) const {
    return LevelOf(node) < HealthLevel::kDegraded;
  }

  /// Bumps whenever any switch crosses the usable/unusable boundary.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  [[nodiscard]] std::size_t degraded_count() const { return degraded_; }
  [[nodiscard]] std::size_t quarantined_count() const { return quarantined_; }
  /// Switches that ever reached kDegraded (monotonic; reported).
  [[nodiscard]] std::size_t ever_degraded() const { return ever_degraded_; }
  [[nodiscard]] bool any_unusable() const { return degraded_ + quarantined_ > 0; }

  /// Visits tracked switches in ascending id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& entry : entries_) {
      fn(NodeId{entry.node}, entry.score, entry.level);
    }
  }

  void SaveState(BinWriter& w) const;
  /// Throws CorruptInput on a bad level, a node id out of ascending order
  /// (or repeated), or degraded/quarantined counts that disagree with the
  /// loaded levels.
  void LoadState(BinReader& r);

  friend bool operator==(const SwitchHealthTracker& a,
                         const SwitchHealthTracker& b);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);

  struct Entry {
    NodeId::rep_type node = 0;
    double score = 0.0;
    HealthLevel level = HealthLevel::kHealthy;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  [[nodiscard]] HealthLevel LevelFor(double score) const;
  /// Folds one observation into `entry` and returns its new level.
  HealthLevel Fold(Entry& entry, bool incident);
  /// The entry of `node`, or nullptr when untracked.
  [[nodiscard]] const Entry* Find(NodeId node) const;

  HealthConfig config_;
  /// Tracked switches, ascending by node id.
  std::vector<Entry> entries_;
  std::uint64_t epoch_ = 0;
  std::size_t degraded_ = 0;
  std::size_t quarantined_ = 0;
  std::size_t ever_degraded_ = 0;
};

}  // namespace nu::recon
