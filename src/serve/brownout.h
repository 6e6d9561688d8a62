// Brownout controller: the health state machine that trades result quality
// for latency when offered load exceeds capacity, and trades back when
// pressure drops — graceful degradation instead of collapse.
//
// States and degradation ladder (each level keeps everything above it):
//
//   level 0  kHealthy     full quality: P-LMTF with the full probe sample.
//   level 1  kDegraded    shrink the probe candidate count to
//                         degraded_alpha (cheaper rounds, slightly worse
//                         picks).
//   level 2  kOverloaded  fall back to the FIFO path (no probes at all) and
//                         suppress OPTIONAL cadence audits (fault-triggered
//                         and final audits always run).
//   level 3  kShedding    additionally reject tenants whose priority is
//                         below shed_min_priority at admission.
//
// The driving signal is a scalar pressure in [0, ~1+]:
//
//   pressure = max(queue_length / queue_reference,
//                  deadline_miss_rate,
//                  stressed_links / stress_reference)
//
// i.e. the worst of queue depth, SLO misses, and guard::LinkStressMonitor
// fabric stress. Transitions move ONE level at a time and are latched with
// hysteresis: pressure must sit at or above the next level's enter
// threshold for hold_enter seconds to escalate, and at or below the current
// level's exit threshold for hold_exit seconds to relax — with exit
// thresholds strictly below enter thresholds, the controller cannot flap.
// Every transition is recorded (time, from, to, pressure) and surfaced as a
// typed row in the serve timeseries.
//
// Pure virtual-time state machine: no RNG, no wall clock; identical Observe
// sequences produce identical transitions, and the full state (including
// hold timers and the transition log) snapshots with the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/types.h"

namespace nu::serve {

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kOverloaded = 2,
  kShedding = 3,
};

[[nodiscard]] const char* ToString(HealthState state);

struct BrownoutConfig {
  /// Enter thresholds: pressure to escalate INTO each state (from the state
  /// below). Must be increasing.
  double enter_degraded = 0.5;
  double enter_overloaded = 0.75;
  double enter_shedding = 0.95;
  /// Exit thresholds: pressure to relax OUT of each state (one level down).
  /// Each must be strictly below the matching enter threshold (hysteresis
  /// band).
  double exit_degraded = 0.3;
  double exit_overloaded = 0.55;
  double exit_shedding = 0.75;
  /// Pressure must persist beyond a threshold this long before the
  /// transition fires (latching; 0 = immediate).
  Seconds hold_enter = 0.5;
  Seconds hold_exit = 2.0;
  /// Queue length mapping to pressure 1.0.
  double queue_reference = 16.0;
  /// Stressed-link count mapping to pressure 1.0.
  double stress_reference = 4.0;
  /// Probe candidate count at degradation level 1 (vs the full alpha).
  std::size_t degraded_alpha = 1;
  /// In kShedding, tenants with priority below this are rejected.
  int shed_min_priority = 1;
};

/// One pressure observation's inputs.
struct BrownoutSignals {
  std::size_t queue_length = 0;
  /// Deadline-miss fraction over the serve layer's sliding window, [0, 1].
  double miss_rate = 0.0;
  /// Links currently in a sustained-overload episode (LinkStressMonitor).
  std::size_t stressed_links = 0;
};

/// A latched state change, logged for the timeseries.
struct BrownoutTransition {
  Seconds time = 0.0;
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  /// Pressure at the moment the transition latched.
  double pressure = 0.0;
};

class BrownoutController {
 public:
  explicit BrownoutController(BrownoutConfig config);

  /// Feeds one observation at virtual time `now` (nondecreasing across
  /// calls) and returns the state after any latched transition. At most one
  /// level of change per call.
  HealthState Observe(Seconds now, const BrownoutSignals& signals);

  [[nodiscard]] HealthState state() const { return state_; }
  /// Degradation ladder level == numeric state (0..3).
  [[nodiscard]] int DegradationLevel() const {
    return static_cast<int>(state_);
  }
  [[nodiscard]] double last_pressure() const { return last_pressure_; }
  [[nodiscard]] const std::vector<BrownoutTransition>& transitions() const {
    return transitions_;
  }
  /// Virtual seconds accumulated in each state (index = numeric state),
  /// measured between consecutive Observe calls.
  [[nodiscard]] const std::vector<Seconds>& time_in_state() const {
    return time_in_state_;
  }

  [[nodiscard]] const BrownoutConfig& config() const { return config_; }

  /// Scalar pressure of one observation (exposed for tests/telemetry).
  [[nodiscard]] double Pressure(const BrownoutSignals& signals) const;

  // Snapshot support: state, hold timers, pressure, transition log, and
  // time-in-state accumulators all round-trip. A state byte out of range
  // throws CorruptInput.
  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);
  [[nodiscard]] double EnterThreshold(HealthState target) const;
  [[nodiscard]] double ExitThreshold(HealthState from) const;

  BrownoutConfig config_;
  HealthState state_ = HealthState::kHealthy;
  /// Since when pressure has continuously been at/above the next enter
  /// threshold; < 0 = not currently.
  Seconds above_since_ = -1.0;
  /// Since when pressure has continuously been at/below the exit threshold.
  Seconds below_since_ = -1.0;
  Seconds last_observe_ = -1.0;
  double last_pressure_ = 0.0;
  std::vector<BrownoutTransition> transitions_;
  std::vector<Seconds> time_in_state_ = std::vector<Seconds>(4, 0.0);
};

}  // namespace nu::serve
