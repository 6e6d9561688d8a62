// PathRegistry: content-addressed, append-only interning store for
// topo::Path. Hot network state (Network placements, overlay patches,
// migration moves, flow actions) keeps a 32-bit PathRef instead of a deep
// Path copy; the registry owns each distinct path exactly once.
//
// Concurrency contract (parallel cost probes intern while other probe
// threads resolve):
//   * Intern() is mutex-guarded; duplicate content returns the existing ref.
//   * Get()/size() are lock-free: paths live in fixed-capacity chunks whose
//     pointers are published with release stores, and the interned count is
//     published last, also with release semantics. A reader that obtained a
//     ref (through Intern's return value or any value published after it)
//     therefore always observes a fully constructed Path.
//   * Entries are never mutated or removed, so `const Path&` returned by
//     Get() stays valid for the registry's lifetime — including across
//     Network copies, which share the registry by shared_ptr.
//
// Ref VALUES are allocation-order dependent (parallel probing may intern in
// nondeterministic order), so they must never be serialized raw or compared
// across registries; snapshots write path contents and re-intern on load.
// A cache of per-ref facts tells registries apart by serial(), never by
// address, since a new registry may reuse a freed one's address.
#pragma once

#include <atomic>
#include <array>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/check.h"
#include "common/types.h"
#include "topo/graph.h"

namespace nu::topo {

class PathRegistry {
 public:
  PathRegistry();
  PathRegistry(const PathRegistry&) = delete;
  PathRegistry& operator=(const PathRegistry&) = delete;

  /// Interns `path`, returning a stable ref; content already present
  /// returns the existing ref (no growth).
  PathRef Intern(const Path& path);

  /// Resolves a ref issued by this registry. Lock-free.
  [[nodiscard]] const Path& Get(PathRef ref) const {
    NU_EXPECTS(ref.value() < size_.load(std::memory_order_acquire));
    const Path* chunk =
        chunks_[ref.value() >> kChunkShift].load(std::memory_order_acquire);
    return chunk[ref.value() & (kChunkCapacity - 1)];
  }

  /// Number of distinct paths interned so far. Lock-free.
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }

  /// Process-unique identity of this registry (1, 2, ...), unlike its
  /// address never handed to a later registry.
  [[nodiscard]] std::uint32_t serial() const { return serial_; }

  /// Honest byte footprint: chunk storage, the heap blocks of each interned
  /// path's node/link vectors, and the dedup index (node + bucket costs).
  [[nodiscard]] std::size_t ApproxBytes() const;

 private:
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkCapacity = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kMaxChunks = 4096;  // 4M distinct paths

  mutable std::mutex mutex_;
  /// Content hash -> refs with that hash (collisions resolved by compare).
  std::unordered_multimap<std::uint64_t, std::uint32_t> index_;
  std::array<std::atomic<Path*>, kMaxChunks> chunks_{};
  std::array<std::unique_ptr<Path[]>, kMaxChunks> chunk_owner_;
  std::atomic<std::uint32_t> size_{0};
  /// 32 bits so it fills the tail padding after size_: ApproxBytes()
  /// counts sizeof(*this), and the footprint stays what it was.
  const std::uint32_t serial_;
};

}  // namespace nu::topo
