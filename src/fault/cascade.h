// Cascade engine: turns sustained link overload (observed by
// guard::LinkStressMonitor) into SECONDARY failures — the
// thermal/buffer-exhaustion cascade real fabrics exhibit when a correlated
// incident squeezes surviving capacity. The simulator calls Observe() at
// occurrence boundaries; any link whose overload has persisted past the
// configured hold time fails as a new fault with cascade depth = (depth of
// the most recent primary/secondary fault) + 1, bounded by a
// per-run secondary-failure budget so a cascade cannot raze the fabric.
//
// Everything here is virtual-time and state-driven — no RNG, no wall clock —
// so a (seed, plan, config) triple cascades identically on every run, and
// the engine's episode state checkpoints with the rest of the hot state.
#pragma once

#include <vector>

#include "common/binio.h"
#include "fault/fault_plan.h"
#include "guard/overload.h"
#include "net/network.h"

namespace nu::fault {

/// A secondary failure the engine decided on: the victim link and the
/// cascade depth it fails at (primary plan faults are depth 1, a cascade
/// triggered while depth-d faults are outstanding is depth d + 1).
struct CascadeEvent {
  LinkId link;
  std::size_t depth = 2;
};

class CascadeEngine {
 public:
  explicit CascadeEngine(const CascadeConfig& config)
      : config_(config),
        monitor_(guard::LinkStressMonitor::Options{
            config.utilization_threshold, config.hold_time}) {}

  [[nodiscard]] bool enabled() const { return config_.enabled(); }
  [[nodiscard]] const CascadeConfig& config() const { return config_; }

  /// Samples link stress at virtual time `now` and returns the secondary
  /// failures to inject (ascending link id), respecting the remaining
  /// budget. Host-incident links never cascade (a host uplink has no
  /// alternative path, so "failing" it would just vaporize its flows
  /// rather than exercise rerouting). Returned events are already counted
  /// against the budget and deepen the depth watermark.
  [[nodiscard]] std::vector<CascadeEvent> Observe(const net::Network& network,
                                                  Seconds now);

  /// Tells the engine a primary (plan) fault fired; cascades triggered
  /// while it is the most recent fault inherit depth `depth + 1`.
  void OnPrimaryFault() { current_depth_ = 1; }

  [[nodiscard]] std::size_t fired() const { return fired_; }
  [[nodiscard]] std::size_t max_depth() const { return max_depth_; }

  // Checkpoint support: budget, depth watermarks, and the monitor's episode
  // state all travel with snapshots so a recovered run cascades identically.
  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);

  CascadeConfig config_;
  guard::LinkStressMonitor monitor_;
  /// Depth of the most recent fault: 0 = none yet, 1 = primary, >= 2 =
  /// cascade. The next cascade fires at current_depth_ + 1 (floor 2).
  std::size_t current_depth_ = 0;
  std::size_t fired_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace nu::fault
