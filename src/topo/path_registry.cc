#include "topo/path_registry.h"

namespace nu::topo {
namespace {

/// FNV-1a over the path's node and link id sequences.
std::uint64_t ContentHash(const Path& path) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint32_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint32_t>(path.nodes.size()));
  for (NodeId n : path.nodes) mix(n.value());
  for (LinkId l : path.links) mix(l.value());
  return h;
}

std::uint32_t NextSerial() {
  static std::atomic<std::uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Marks a free index slot; refs stay far below it (kMaxChunks caps them).
constexpr std::uint32_t kFreeSlot = 0xFFFFFFFFu;
constexpr std::size_t kInitialSlots = 64;

/// Home slot of `hash` in an index of `slots` (a power of two) slots. The
/// fold mixes FNV's better-stirred high bits into the masked low ones.
std::size_t HomeSlot(std::uint64_t hash, std::size_t slots) {
  return static_cast<std::size_t>(hash ^ (hash >> 32)) & (slots - 1);
}

std::size_t NextSlot(std::size_t slot, std::size_t slots) {
  return (slot + 1) & (slots - 1);
}

}  // namespace

PathRegistry::PathRegistry()
    : slot_refs_(kInitialSlots, kFreeSlot),
      slot_hashes_(kInitialSlots, 0),
      serial_(NextSerial()) {}

PathRef PathRegistry::Intern(const Path& path) {
  const std::uint64_t hash = ContentHash(path);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t ref = size_.load(std::memory_order_relaxed);
  // Keep room for a miss below half load (a hit may grow one step early).
  if (2 * (std::size_t{ref} + 1) > slot_refs_.size()) GrowIndex();
  std::size_t slot = HomeSlot(hash, slot_refs_.size());
  for (; slot_refs_[slot] != kFreeSlot;
       slot = NextSlot(slot, slot_refs_.size())) {
    if (slot_hashes_[slot] == hash && Slot(slot_refs_[slot]) == path) {
      return PathRef{slot_refs_[slot]};
    }
  }
  const std::size_t chunk_index = ref >> kChunkShift;
  NU_CHECK(chunk_index < kMaxChunks);
  if (chunks_[chunk_index].load(std::memory_order_relaxed) == nullptr) {
    chunk_owner_[chunk_index] = std::make_unique<Path[]>(kChunkCapacity);
    chunks_[chunk_index].store(chunk_owner_[chunk_index].get(),
                               std::memory_order_release);
  }
  Path& stored = chunks_[chunk_index].load(std::memory_order_relaxed)
      [ref & (kChunkCapacity - 1)];
  stored = path;
  path_bytes_ += stored.nodes.capacity() * sizeof(NodeId) +
                 stored.links.capacity() * sizeof(LinkId);
  slot_refs_[slot] = ref;
  slot_hashes_[slot] = hash;
  // Publish AFTER the slot is fully written: readers acquire size_ (or
  // receive the ref through a later publication) and then read the slot.
  size_.store(ref + 1, std::memory_order_release);
  return PathRef{ref};
}

void PathRegistry::GrowIndex() {
  std::vector<std::uint32_t> refs(2 * slot_refs_.size(), kFreeSlot);
  std::vector<std::uint64_t> hashes(refs.size(), 0);
  for (std::size_t i = 0; i < slot_refs_.size(); ++i) {
    if (slot_refs_[i] == kFreeSlot) continue;
    std::size_t slot = HomeSlot(slot_hashes_[i], refs.size());
    while (refs[slot] != kFreeSlot) slot = NextSlot(slot, refs.size());
    refs[slot] = slot_refs_[i];
    hashes[slot] = slot_hashes_[i];
  }
  slot_refs_ = std::move(refs);
  slot_hashes_ = std::move(hashes);
}

std::size_t PathRegistry::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = size_.load(std::memory_order_relaxed);
  const std::size_t chunks = (count + kChunkCapacity - 1) >> kChunkShift;
  return sizeof(*this) + chunks * kChunkCapacity * sizeof(Path) +
         path_bytes_ + slot_refs_.capacity() * sizeof(std::uint32_t) +
         slot_hashes_.capacity() * sizeof(std::uint64_t);
}

std::size_t PathRegistry::index_slots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slot_refs_.size();
}

}  // namespace nu::topo
