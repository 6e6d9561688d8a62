// PathRegistry: content-addressed, append-only interning store for
// topo::Path. Hot network state (Network placements, overlay patches,
// migration moves, flow actions) keeps a 32-bit PathRef instead of a deep
// Path copy; the registry owns each distinct path exactly once.
//
// Concurrency contract (parallel cost probes intern while other probe
// threads resolve):
//   * Intern() is mutex-guarded; duplicate content returns the existing ref.
//     Its dedup index is a flat open-addressing table of refs with each
//     slot's content hash in a parallel array, grown to stay at most half
//     full, so a lookup is a short linear probe with no node allocation.
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
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

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
  /// path's node/link vectors, and the dedup index's two arrays. O(1): the
  /// vector bytes are summed as paths are interned.
  [[nodiscard]] std::size_t ApproxBytes() const;

  /// Slots in the dedup index: a power of two, at least 2 * size().
  [[nodiscard]] std::size_t index_slots() const;

  /// Paths per storage chunk (chunks are allocated whole).
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkCapacity = std::size_t{1} << kChunkShift;

 private:
  static constexpr std::size_t kMaxChunks = 4096;  // 4M distinct paths

  [[nodiscard]] const Path& Slot(std::uint32_t ref) const {
    return chunks_[ref >> kChunkShift].load(std::memory_order_relaxed)
        [ref & (kChunkCapacity - 1)];
  }
  /// Rebuilds the index with twice the slots. Requires the mutex.
  void GrowIndex();

  mutable std::mutex mutex_;
  /// Dedup index, guarded by mutex_: the ref in each slot (kFreeSlot when
  /// empty) and that ref's content hash. Linear probing from the hash.
  std::vector<std::uint32_t> slot_refs_;
  std::vector<std::uint64_t> slot_hashes_;
  /// Heap bytes of every interned path's node and link vectors, guarded by
  /// mutex_.
  std::size_t path_bytes_ = 0;
  std::array<std::atomic<Path*>, kMaxChunks> chunks_{};
  std::array<std::unique_ptr<Path[]>, kMaxChunks> chunk_owner_;
  std::atomic<std::uint32_t> size_{0};
  /// 32 bits so it fills the tail padding after size_ (ApproxBytes()
  /// counts sizeof(*this)).
  const std::uint32_t serial_;
};

}  // namespace nu::topo
