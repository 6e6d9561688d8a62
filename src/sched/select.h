// Candidate selection of the LMTF-family schedulers: the cheapest
// candidate wins under strict <, so on ties the earlier queue position
// (candidates are listed in ascending arrival order) keeps FIFO order.
#pragma once

#include <cstddef>
#include <span>

#include "common/check.h"
#include "common/types.h"

namespace nu::sched {

/// The winning candidate among `candidates` (queue positions in ascending
/// order) with per-candidate `costs`. Returns the candidate value, exactly
/// as LmtfScheduler's inline scan always has: strict <, first-listed wins
/// ties.
[[nodiscard]] inline std::size_t CheapestCandidate(
    std::span<const std::size_t> candidates, std::span<const Mbps> costs) {
  NU_EXPECTS(!candidates.empty());
  NU_EXPECTS(costs.size() >= candidates.size());
  std::size_t cheapest = candidates[0];
  Mbps cheapest_cost = costs[0];
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (costs[i] < cheapest_cost) {
      cheapest = candidates[i];
      cheapest_cost = costs[i];
    }
  }
  return cheapest;
}

}  // namespace nu::sched
