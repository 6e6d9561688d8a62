// Vectorizable kernels over flat per-link rows (structure-of-arrays): the
// inner arithmetic of congested-link detection, candidate scoring, and the
// auditor's capacity scan, factored out of the virtual NetworkView walkers.
// Callers gather a path's residuals into a contiguous row with straight
// indexed loads from the view's ResidualData(), which every view provides
// (overlays included), and reduce the row with these kernels.
//
// Two implementations ship in one translation unit:
//   * nu::net::scalar::* — the reference loops, always compiled, used by the
//     differential tests and as the dispatch target when NU_SIMD is OFF;
//   * explicit SSE2/AVX2 paths selected at build time by the NU_SIMD CMake
//     option (see src/CMakeLists.txt), reached through the unqualified
//     entry points below.
//
// Every kernel is bit-identical across backends by construction: the only
// float operations are comparisons, subtraction, min and max — all exactly
// rounded and order-insensitive here (the max/min reductions are over exact
// values, and "first index attaining the max" is recovered by an exact
// equality rescan). No FMA contraction, no reassociated sums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace nu::net {

/// Worst single-link shortfall of placing `demand` on a gathered row.
/// A row position is congested iff row[i] + kBandwidthEpsilon < demand
/// (the complement of ApproxGe, matching NetworkView::CongestedLinks);
/// its deficit is demand - row[i]. `deficit` is 0 when nothing is
/// congested; otherwise `index`/`residual` identify the FIRST position
/// attaining the maximum deficit (strict-greater scan order).
struct WorstDeficit {
  Mbps deficit = 0.0;
  std::size_t index = 0;
  Mbps residual = 0.0;
};

/// Backend compiled into the unqualified entry points:
/// "avx2", "sse2", or "scalar".
[[nodiscard]] const char* SimdBackend();

/// out[i] = soa[links[i]] for every position of the path's link row.
void GatherResiduals(const Mbps* soa, std::span<const LinkId> links,
                     Mbps* out);

/// Number of congested positions (see WorstDeficit for the predicate).
[[nodiscard]] std::size_t CountCongested(const Mbps* row, std::size_t n,
                                         Mbps demand);

/// Worst-link deficit over the row (see WorstDeficit).
[[nodiscard]] WorstDeficit MaxDeficit(const Mbps* row, std::size_t n,
                                      Mbps demand);

/// Minimum over the row; +infinity for an empty row (BottleneckResidual
/// semantics).
[[nodiscard]] Mbps MinValue(const Mbps* row, std::size_t n);

/// Appends to `flagged` the ascending indices i in [0, n) where the
/// auditor's capacity invariants fire:
///   |(capacity[i] - load[i]) - residual[i]| > eps, or (when overcommit is
///   not allowed) load[i] > capacity[i] + eps or residual[i] < -eps.
/// `index_base` is added to every emitted index (sharded slice scans pass
/// their range start).
void ScanCapacityViolations(const Mbps* residual, const Mbps* load,
                            const Mbps* capacity, std::size_t n,
                            bool allow_overcommit, double eps,
                            std::uint32_t index_base,
                            std::vector<std::uint32_t>& flagged);

/// Reference implementations (always scalar, never intrinsic). The
/// dispatch functions above must agree with these bitwise on every input —
/// tests/update/batched_scoring_test.cc enforces it.
namespace scalar {
void GatherResiduals(const Mbps* soa, std::span<const LinkId> links,
                     Mbps* out);
[[nodiscard]] std::size_t CountCongested(const Mbps* row, std::size_t n,
                                         Mbps demand);
[[nodiscard]] WorstDeficit MaxDeficit(const Mbps* row, std::size_t n,
                                      Mbps demand);
[[nodiscard]] Mbps MinValue(const Mbps* row, std::size_t n);
void ScanCapacityViolations(const Mbps* residual, const Mbps* load,
                            const Mbps* capacity, std::size_t n,
                            bool allow_overcommit, double eps,
                            std::uint32_t index_base,
                            std::vector<std::uint32_t>& flagged);
}  // namespace scalar

}  // namespace nu::net
