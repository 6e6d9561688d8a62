#include "sched/lmtf.h"

#include <algorithm>

#include "common/check.h"
#include "sched/select.h"

namespace nu::sched {

LmtfScheduler::LmtfScheduler(LmtfConfig config) : config_(config) {
  NU_EXPECTS(config_.alpha >= 1);
}

LmtfScheduler::Pick LmtfScheduler::PickCheapest(SchedulingContext& context,
                                                std::size_t alpha) {
  const std::size_t queue_size = context.Queue().size();
  NU_EXPECTS(queue_size > 0);

  // Candidates: the head plus alpha events sampled without replacement from
  // positions [1, queue_size).
  std::vector<std::size_t> candidates{0};
  if (queue_size > 1) {
    const std::size_t sample_count = std::min(alpha, queue_size - 1);
    auto sampled =
        context.rng().SampleWithoutReplacement(queue_size - 1, sample_count);
    for (std::size_t s : sampled) candidates.push_back(s + 1);
    // Arrival order within the sampled set (deterministic and fairness-
    // friendly for the P-LMTF second phase).
    std::sort(candidates.begin() + 1, candidates.end());
  }

  // Probe all candidates in one batch so a parallel-capable context can
  // evaluate them concurrently; the scan below is unchanged.
  std::vector<Mbps> costs(candidates.size());
  context.ProbeCosts(candidates, costs);
  // Strict < : on ties the earlier arrival (smaller queue index) wins,
  // preserving FIFO order whenever costs are equal (sched/select.h).
  const std::size_t cheapest = CheapestCandidate(candidates, costs);
  return Pick{.candidates = std::move(candidates), .cheapest = cheapest};
}

std::size_t LmtfScheduler::EffectiveAlpha(const SchedulingContext& context,
                                          std::size_t alpha) {
  return context.Pressure().Overloaded() ? 2 * alpha : alpha;
}

Decision LmtfScheduler::Decide(SchedulingContext& context) {
  const Pick pick =
      PickCheapest(context, EffectiveAlpha(context, config_.alpha));
  return Decision{.selected = {pick.cheapest}};
}

}  // namespace nu::sched
