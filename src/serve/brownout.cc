#include "serve/brownout.h"

#include <algorithm>

#include "common/check.h"

namespace nu::serve {

const char* ToString(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kOverloaded:
      return "overloaded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "?";
}

BrownoutController::BrownoutController(BrownoutConfig config)
    : config_(config) {
  NU_EXPECTS(config_.enter_degraded < config_.enter_overloaded &&
             config_.enter_overloaded < config_.enter_shedding);
  NU_EXPECTS(config_.exit_degraded < config_.enter_degraded);
  NU_EXPECTS(config_.exit_overloaded < config_.enter_overloaded);
  NU_EXPECTS(config_.exit_shedding < config_.enter_shedding);
  NU_EXPECTS(config_.hold_enter >= 0.0 && config_.hold_exit >= 0.0);
  NU_EXPECTS(config_.queue_reference > 0.0 && config_.stress_reference > 0.0);
}

double BrownoutController::Pressure(const BrownoutSignals& signals) const {
  const double queue =
      static_cast<double>(signals.queue_length) / config_.queue_reference;
  const double stress =
      static_cast<double>(signals.stressed_links) / config_.stress_reference;
  return std::max({queue, signals.miss_rate, stress});
}

double BrownoutController::EnterThreshold(HealthState target) const {
  switch (target) {
    case HealthState::kDegraded:
      return config_.enter_degraded;
    case HealthState::kOverloaded:
      return config_.enter_overloaded;
    case HealthState::kShedding:
      return config_.enter_shedding;
    case HealthState::kHealthy:
      break;
  }
  NU_CHECK(false && "no enter threshold for healthy");
  return 0.0;
}

double BrownoutController::ExitThreshold(HealthState from) const {
  switch (from) {
    case HealthState::kDegraded:
      return config_.exit_degraded;
    case HealthState::kOverloaded:
      return config_.exit_overloaded;
    case HealthState::kShedding:
      return config_.exit_shedding;
    case HealthState::kHealthy:
      break;
  }
  NU_CHECK(false && "no exit threshold for healthy");
  return 0.0;
}

HealthState BrownoutController::Observe(Seconds now,
                                        const BrownoutSignals& signals) {
  // Accumulate time in the state we were in since the previous observation.
  if (last_observe_ >= 0.0 && now > last_observe_) {
    time_in_state_[static_cast<std::size_t>(state_)] += now - last_observe_;
  }
  last_observe_ = now;

  const double pressure = Pressure(signals);
  last_pressure_ = pressure;

  // Escalation: pressure at/above the NEXT level's enter threshold, held
  // for hold_enter. One level per latch; the timers restart after a
  // transition, so a two-level climb takes two holds.
  const bool can_escalate = state_ != HealthState::kShedding;
  const bool can_relax = state_ != HealthState::kHealthy;
  const double enter = can_escalate
                           ? EnterThreshold(static_cast<HealthState>(
                                 static_cast<int>(state_) + 1))
                           : 0.0;
  const double relax_at = can_relax ? ExitThreshold(state_) : 0.0;

  if (can_escalate && pressure >= enter) {
    below_since_ = -1.0;
    if (above_since_ < 0.0) above_since_ = now;
    if (now - above_since_ >= config_.hold_enter) {
      const HealthState from = state_;
      state_ = static_cast<HealthState>(static_cast<int>(state_) + 1);
      transitions_.push_back({now, from, state_, pressure});
      above_since_ = -1.0;
      below_since_ = -1.0;
    }
    return state_;
  }
  if (can_relax && pressure <= relax_at) {
    above_since_ = -1.0;
    if (below_since_ < 0.0) below_since_ = now;
    if (now - below_since_ >= config_.hold_exit) {
      const HealthState from = state_;
      state_ = static_cast<HealthState>(static_cast<int>(state_) - 1);
      transitions_.push_back({now, from, state_, pressure});
      above_since_ = -1.0;
      below_since_ = -1.0;
    }
    return state_;
  }
  // Inside the hysteresis band: both hold timers reset — persistence must
  // be CONTINUOUS to latch.
  above_since_ = -1.0;
  below_since_ = -1.0;
  return state_;
}

template <typename Ar, typename Self>
void BrownoutController::Section(Ar& ar, Self& self) {
  ar.Enum(self.state_, HealthState::kShedding);
  ar.F64(self.above_since_, self.below_since_, self.last_observe_,
         self.last_pressure_);
  ar.Seq(self.transitions_, [](Ar& a, auto& t) {
    a.F64(t.time);
    a.Enum(t.from, HealthState::kShedding);
    a.Enum(t.to, HealthState::kShedding);
    a.F64(t.pressure);
  });
  for (auto& seconds : self.time_in_state_) ar.F64(seconds);
}

void BrownoutController::SaveState(BinWriter& w) const { Section(w, *this); }
void BrownoutController::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::serve
