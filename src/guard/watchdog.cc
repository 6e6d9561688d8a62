#include "guard/watchdog.h"

#include <algorithm>
#include <cmath>
#include <string>

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

void Watchdog::SaveState(BinWriter& w) const {
  std::vector<EventId::rep_type> events;
  events.reserve(failures_.size());
  for (const auto& [rep, _] : failures_) events.push_back(rep);
  std::sort(events.begin(), events.end());
  w.Size(events.size());
  for (EventId::rep_type rep : events) {
    w.U64(rep);
    w.U64(failures_.at(rep));
  }
}

void Watchdog::LoadState(BinReader& r) {
  failures_.clear();
  const std::size_t count = r.Size();
  failures_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const EventId::rep_type rep = r.U64();
    const std::size_t misses = r.U64();
    if (!failures_.emplace(rep, misses).second) {
      throw CorruptInput("watchdog state repeats event " +
                         std::to_string(rep));
    }
  }
}

}  // namespace nu::guard
