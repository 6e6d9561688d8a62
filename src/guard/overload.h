// Overload control for the update queue. A production controller cannot let
// the scheduler's queue grow without bound: beyond some depth every further
// admission only adds queuing delay for everyone (the paper's Fig. 8 metric)
// while the head keeps starving. The guard bounds the queue and applies a
// configurable backpressure policy when a new event arrives at a full queue:
//
//   * kRejectNew     — the incoming event is shed (classic tail drop). Keeps
//                      the oldest work; favors fairness (FIFO order intact).
//   * kShedOldest    — the queue head is shed to admit the newcomer (head
//                      drop). Keeps the queue fresh under sustained overload,
//                      when the oldest entries have already missed any
//                      latency target worth meeting.
//   * kShedCostliest — the event with the largest estimated update cost
//                      (update::QuickCostScore, the same estimate LMTF's
//                      quick probes rank by) among queue + newcomer is shed.
//                      Maximizes surviving throughput per unit of migration
//                      work — the LMTF idea applied to admission.
//
// Shedding is observable, never silent: the simulator records every shed
// event with a terminal status (metrics::TerminalStatus) and counts it in
// metrics::GuardStats.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/binio.h"
#include "net/network.h"
#include "topo/path_provider.h"
#include "update/update_event.h"

namespace nu::guard {

enum class OverloadPolicy : std::uint8_t {
  kRejectNew,
  kShedOldest,
  kShedCostliest,
};

[[nodiscard]] const char* ToString(OverloadPolicy policy);

/// Parses "reject-new" | "shed-oldest" | "shed-costliest". Throws
/// CorruptInput on unknown names.
[[nodiscard]] OverloadPolicy ParseOverloadPolicy(const std::string& name);

struct OverloadConfig {
  /// Maximum number of queued (admitted, not yet executing) update events.
  /// 0 disables admission control entirely — the queue is unbounded, as in
  /// the paper's evaluation setting.
  std::size_t max_queue_length = 0;
  OverloadPolicy policy = OverloadPolicy::kRejectNew;

  [[nodiscard]] bool enabled() const { return max_queue_length > 0; }
};

/// Decides which event to shed when `incoming` arrives at a full queue
/// (queue.size() == max_queue_length). Returns the queue index of the
/// victim, or nullopt when the incoming event itself should be shed.
/// kShedCostliest estimates every candidate's cost against the current
/// network — O(queue x flows) path lookups, paid only at the overload
/// boundary.
[[nodiscard]] std::optional<std::size_t> ChooseShedVictim(
    const OverloadConfig& config,
    std::span<const update::UpdateEvent* const> queue,
    const update::UpdateEvent& incoming, const net::Network& network,
    const topo::PathProvider& paths);

/// Sustained-overload detector: tracks, per link, how long utilization has
/// stayed at or above a threshold and reports links whose overload has
/// persisted for a hold time. This is the guard-side half of the
/// overload→cascade feedback loop — fault::CascadeEngine turns reported
/// links into secondary failures. Purely virtual-time and state-driven:
/// identical Observe() call sequences produce identical reports, keeping
/// cascades bit-reproducible.
///
/// A reported link is latched (never re-reported) until it is later seen
/// BELOW the threshold while up — so a link that trips, fails, recovers,
/// and gets overloaded again can trip again, but a single sustained episode
/// fires exactly once.
///
/// Cost follows change, not fabric size: a full sweep over every link runs
/// only when the observed network object or its state_epoch() differs from
/// the last sweep's. Otherwise no link's utilization or liveness can have
/// moved, so only the links with an open, untripped episode are checked
/// against the hold time. That memo is never serialized; Reset and
/// LoadState clear it.
class LinkStressMonitor {
 public:
  struct Options {
    /// Utilization (occupied / capacity) at or above which a link counts as
    /// overloaded.
    double utilization_threshold = 0.98;
    /// How long the overload must persist before the link is reported.
    Seconds hold_time = 1.0;
  };

  explicit LinkStressMonitor(Options options) : options_(options) {}

  /// Samples every link's utilization at virtual time `now` (>= 0) and
  /// returns the links (ascending id order) whose sustained overload just
  /// crossed the hold time. Down links are skipped and their episodes
  /// cleared — a dead link cannot be stressed. A caller that restores or
  /// reassigns the observed network in place restores or resets this
  /// monitor with it.
  [[nodiscard]] std::vector<LinkId> Observe(const net::Network& network,
                                            Seconds now);

  /// Forgets all tracked episodes and latches (fresh run).
  void Reset();

  // Episode state is part of the simulation's hot state: checkpoints carry
  // it so a recovered run trips the same cascades at the same times.
  void SaveState(BinWriter& w) const;
  /// Throws CorruptInput when the episode and latch rows differ in length.
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);
  /// One overloaded observation of up link `i`: opens its episode if none
  /// is open and latches it once the episode has lasted the hold time.
  /// True when it latched now.
  bool Overloaded(std::size_t i, Seconds now);
  /// Observe's full pass over every link; rebuilds `open_`.
  void Sweep(const net::Network& network, Seconds now,
             std::vector<LinkId>& crossed);

  Options options_;
  /// Virtual time each link's current overload episode began; < 0 = none.
  std::vector<Seconds> overload_since_;
  std::vector<char> tripped_;  // latched: already reported this episode
  /// The network and state epoch of the last full sweep (not serialized).
  const net::Network* swept_network_ = nullptr;
  std::uint64_t swept_epoch_ = 0;
  /// Up links with an open, untripped episode as of the last observation,
  /// ascending — all an observation of unchanged state can latch.
  std::vector<std::uint32_t> open_;
};

}  // namespace nu::guard
