#include "guard/watchdog.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace nu::guard {

Seconds DeadlineConfig::DeadlineFor(std::size_t flow_count) const {
  NU_EXPECTS(enabled());
  return base_deadline +
         per_flow_deadline * static_cast<double>(flow_count);
}

Seconds DeadlineConfig::BackoffAfter(std::size_t failures) const {
  NU_EXPECTS(failures >= 1);
  const double nominal =
      requeue_backoff *
      std::pow(backoff_factor, static_cast<double>(failures - 1));
  return std::min(max_backoff, nominal);
}

Watchdog::Watchdog(DeadlineConfig config) : config_(config) {
  NU_EXPECTS(config_.max_failures >= 1);
}

bool Watchdog::RecordMiss(EventId event) {
  const std::size_t misses = ++failures_[event.value()];
  return misses >= config_.max_failures;
}

std::size_t Watchdog::failures(EventId event) const {
  const auto it = failures_.find(event.value());
  return it == failures_.end() ? 0 : it->second;
}

Seconds Watchdog::RequeueDelay(EventId event) const {
  const std::size_t misses = failures(event);
  NU_EXPECTS(misses >= 1);
  return config_.BackoffAfter(misses);
}

template <typename Ar, typename Self>
void Watchdog::Section(Ar& ar, Self& self) {
  ar.Seq(self.failures_, [](Ar& a, auto& entry) {
    a.U64(entry.first);
    a.U64(entry.second);
  });
}

void Watchdog::SaveState(BinWriter& w) const { Section(w, *this); }
void Watchdog::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::guard
