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

}  // namespace

PathRegistry::PathRegistry() : serial_(NextSerial()) {}

PathRef PathRegistry::Intern(const Path& path) {
  const std::uint64_t hash = ContentHash(path);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [begin, end] = index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    const std::uint32_t ref = it->second;
    const Path& existing =
        chunks_[ref >> kChunkShift].load(std::memory_order_relaxed)
            [ref & (kChunkCapacity - 1)];
    if (existing == path) return PathRef{ref};
  }
  const std::uint32_t ref = size_.load(std::memory_order_relaxed);
  const std::size_t chunk_index = ref >> kChunkShift;
  NU_CHECK(chunk_index < kMaxChunks);
  if (chunks_[chunk_index].load(std::memory_order_relaxed) == nullptr) {
    chunk_owner_[chunk_index] = std::make_unique<Path[]>(kChunkCapacity);
    chunks_[chunk_index].store(chunk_owner_[chunk_index].get(),
                               std::memory_order_release);
  }
  chunks_[chunk_index].load(std::memory_order_relaxed)
      [ref & (kChunkCapacity - 1)] = path;
  index_.emplace(hash, ref);
  // Publish AFTER the slot is fully written: readers acquire size_ (or
  // receive the ref through a later publication) and then read the slot.
  size_.store(ref + 1, std::memory_order_release);
  return PathRef{ref};
}

std::size_t PathRegistry::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = size_.load(std::memory_order_relaxed);
  std::size_t bytes = sizeof(*this);
  for (std::size_t c = 0; c * kChunkCapacity < count; ++c) {
    bytes += kChunkCapacity * sizeof(Path);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Path& p = chunks_[i >> kChunkShift].load(std::memory_order_relaxed)
                        [i & (kChunkCapacity - 1)];
    bytes += p.nodes.capacity() * sizeof(NodeId) +
             p.links.capacity() * sizeof(LinkId);
  }
  // Dedup index: hash-node (hash + ref + chain pointer, padded) plus one
  // bucket slot per entry.
  bytes += index_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                            2 * sizeof(void*)) +
           index_.bucket_count() * sizeof(void*);
  return bytes;
}

}  // namespace nu::topo
