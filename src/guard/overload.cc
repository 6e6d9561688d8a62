#include "guard/overload.h"

#include "common/check.h"
#include "common/logging.h"
#include "common/text.h"
#include "update/cost_estimate.h"

namespace nu::guard {

const char* ToString(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kRejectNew:
      return "reject-new";
    case OverloadPolicy::kShedOldest:
      return "shed-oldest";
    case OverloadPolicy::kShedCostliest:
      return "shed-costliest";
  }
  return "unknown";
}

OverloadPolicy ParseOverloadPolicy(const std::string& name) {
  if (name == "reject-new") return OverloadPolicy::kRejectNew;
  if (name == "shed-oldest") return OverloadPolicy::kShedOldest;
  if (name == "shed-costliest") return OverloadPolicy::kShedCostliest;
  throw CorruptInput("unknown overload policy '" + name + "'");
}

std::optional<std::size_t> ChooseShedVictim(
    const OverloadConfig& config,
    std::span<const update::UpdateEvent* const> queue,
    const update::UpdateEvent& incoming, const net::Network& network,
    const topo::PathProvider& paths) {
  NU_EXPECTS(config.enabled());
  NU_EXPECTS(queue.size() >= config.max_queue_length);

  switch (config.policy) {
    case OverloadPolicy::kRejectNew:
      return std::nullopt;
    case OverloadPolicy::kShedOldest:
      return 0;
    case OverloadPolicy::kShedCostliest: {
      // Ties go to the incoming event (prefer keeping admitted work), then
      // to the earliest queue position — deterministic for equal scores.
      Mbps worst = update::QuickCostScore(network, paths, incoming);
      std::optional<std::size_t> victim;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const Mbps score = update::QuickCostScore(network, paths, *queue[i]);
        if (score > worst) {
          worst = score;
          victim = i;
        }
      }
      NU_LOG(kDebug) << "overload: shed-costliest victim score " << worst;
      return victim;
    }
  }
  return std::nullopt;
}

bool LinkStressMonitor::Overloaded(std::size_t i, Seconds now) {
  if (overload_since_[i] < 0.0) overload_since_[i] = now;
  if (!tripped_[i] && now - overload_since_[i] >= options_.hold_time) {
    tripped_[i] = 1;
    return true;
  }
  return false;
}

void LinkStressMonitor::Sweep(const net::Network& network, Seconds now,
                              std::vector<LinkId>& crossed) {
  const std::span<const topo::Link> links = network.graph().links();
  if (overload_since_.size() < links.size()) {
    overload_since_.resize(links.size(), -1.0);
    tripped_.resize(links.size(), 0);
  }
  const Mbps* residual = network.ResidualData();
  const bool any_down = network.down_link_count() > 0;
  open_.clear();
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkId link{static_cast<LinkId::rep_type>(i)};
    if (any_down && !network.LinkUp(link)) {
      overload_since_[i] = -1.0;
      continue;
    }
    // Network::Utilization's expression, read from the flat rows in place.
    if (1.0 - residual[i] / links[i].capacity >=
        options_.utilization_threshold) {
      if (Overloaded(i, now)) {
        crossed.push_back(link);
      } else if (!tripped_[i]) {
        open_.push_back(static_cast<std::uint32_t>(i));
      }
    } else {
      overload_since_[i] = -1.0;
      tripped_[i] = 0;  // episode over: a future episode may trip again
    }
  }
  swept_network_ = &network;
  swept_epoch_ = network.state_epoch();
}

std::vector<LinkId> LinkStressMonitor::Observe(const net::Network& network,
                                               Seconds now) {
  NU_EXPECTS(now >= 0.0);
  std::vector<LinkId> crossed;
  if (&network != swept_network_ || network.state_epoch() != swept_epoch_) {
    Sweep(network, now, crossed);
    return crossed;
  }
  // Unchanged state since the last sweep: every other link would repeat
  // its last observation, so only open episodes can cross the hold time.
  std::size_t kept = 0;
  for (const std::uint32_t i : open_) {
    if (Overloaded(i, now)) {
      crossed.push_back(LinkId{i});
    } else {
      open_[kept++] = i;
    }
  }
  open_.resize(kept);
  return crossed;
}

void LinkStressMonitor::Reset() {
  overload_since_.clear();
  tripped_.clear();
  swept_network_ = nullptr;
  open_.clear();
}

template <typename Ar, typename Self>
void LinkStressMonitor::Section(Ar& ar, Self& self) {
  // Loading reads both rows aside and replaces the monitor's (and clears
  // the sweep memo, which is not state) only once they agree, so a payload
  // that throws leaves the monitor as it was.
  std::vector<Seconds> loaded_since;
  std::vector<char> loaded_tripped;
  auto& since = Ar::kLoading ? loaded_since : self.overload_since_;
  auto& tripped = Ar::kLoading ? loaded_tripped : self.tripped_;
  ar.Seq(since, [](Ar& a, auto& s) { a.F64(s); });
  ar.Seq(tripped, [](Ar& a, auto& t) { a.Bool(t); });
  ar.Check(tripped.size() == since.size(),
           "stress monitor rows differ in length");
  if constexpr (Ar::kLoading) {
    self.Reset();
    self.overload_since_ = std::move(loaded_since);
    self.tripped_ = std::move(loaded_tripped);
  }
}

void LinkStressMonitor::SaveState(BinWriter& w) const { Section(w, *this); }
void LinkStressMonitor::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::guard
