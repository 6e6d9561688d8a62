#include "guard/overload.h"

#include "common/check.h"
#include "common/logging.h"
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
  NU_CHECK(false && "unknown overload policy");
  return OverloadPolicy::kRejectNew;
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

std::vector<LinkId> LinkStressMonitor::Observe(const net::Network& network,
                                               Seconds now) {
  const std::size_t links = network.graph().link_count();
  if (overload_since_.size() < links) {
    overload_since_.resize(links, -1.0);
    tripped_.resize(links, 0);
  }
  std::vector<LinkId> crossed;
  for (std::size_t i = 0; i < links; ++i) {
    const LinkId link{static_cast<LinkId::rep_type>(i)};
    if (!network.LinkUp(link)) {
      overload_since_[i] = -1.0;
      continue;
    }
    if (network.Utilization(link) >= options_.utilization_threshold) {
      if (overload_since_[i] < 0.0) overload_since_[i] = now;
      if (!tripped_[i] && now - overload_since_[i] >= options_.hold_time) {
        tripped_[i] = 1;
        crossed.push_back(link);
      }
    } else {
      overload_since_[i] = -1.0;
      tripped_[i] = 0;  // episode over: a future episode may trip again
    }
  }
  return crossed;
}

void LinkStressMonitor::Reset() {
  overload_since_.clear();
  tripped_.clear();
}

void LinkStressMonitor::SaveState(BinWriter& w) const {
  w.Vec(overload_since_, [](BinWriter& out, Seconds s) { out.F64(s); });
  w.Vec(tripped_, [](BinWriter& out, char t) { out.U8(t != 0 ? 1 : 0); });
}

void LinkStressMonitor::LoadState(BinReader& r) {
  overload_since_ =
      r.Vec<Seconds>([](BinReader& in) { return in.F64(); });
  tripped_ = r.Vec<char>(
      [](BinReader& in) { return static_cast<char>(in.U8() != 0 ? 1 : 0); });
}

}  // namespace nu::guard
