// FlowTable owns flow descriptors and allocates ids. The network layer
// references flows by id only; the table is the single source of truth for
// flow attributes (endpoints, demand, duration, origin) and for each flow's
// placement, the interned PathRef it rides on.
//
// Storage is sized by live flows, not by ids ever allocated (docs/model.md
// §12):
//   * Slots live in fixed-size slab chunks. A departed flow's slot goes on a
//     free list and the next Add reuses it, so the chunks hold the run's
//     peak live count, not its id count. A live flow's slot never moves, so
//     references handed out by Get() (and Network::FlowOf) stay valid across
//     later Add() and Remove() calls of other flows.
//   * An id -> slot index maps ids to slots. It is paged: a page covers
//     kIdsPerPage consecutive ids, is allocated when the first of its ids is
//     stored and freed once every id it covers was handed out and departed.
//
// Ids are monotonic and never reused. Everything canonical (snapshot bytes,
// PlacedFlows, the per-link lists a load rebuilds) iterates in ascending id
// through the index (ForEach); only order-free reductions such as the
// auditor's walk take the slots in memory order (ForEachInSlotOrder).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/binio.h"
#include "common/check.h"
#include "flow/flow.h"

namespace nu::flow {

class FlowTable {
 public:
  FlowTable() = default;
  FlowTable(const FlowTable& other);
  FlowTable& operator=(const FlowTable& other);
  FlowTable(FlowTable&&) noexcept = default;
  FlowTable& operator=(FlowTable&&) noexcept = default;

  /// Registers a flow placed on `path`; assigns and returns its id (ignores
  /// flow.id on input).
  FlowId Add(Flow flow, PathRef path);

  /// Removes a flow. Requires the flow to exist.
  void Remove(FlowId id);

  [[nodiscard]] bool Contains(FlowId id) const {
    return SlotIndexOf(id) != kNoSlot;
  }

  [[nodiscard]] const Flow& Get(FlowId id) const {
    return SlotOf(id).flow;
  }

  /// The path flow `id` is placed on; invalid() between LoadState and the
  /// network's placement records.
  [[nodiscard]] PathRef PathOf(FlowId id) const { return SlotOf(id).path; }

  /// Moves flow `id` onto `path` (a reroute or a loaded placement).
  void SetPath(FlowId id, PathRef path) {
    const std::uint32_t s = SlotIndexOf(id);
    NU_EXPECTS(s != kNoSlot);
    SlotAt(s).path = path;
  }

  [[nodiscard]] std::size_t size() const { return live_; }

  /// Calls `fn(const Flow&, PathRef)` for every live flow in ascending-id
  /// order: the index pages in order, each page's stored ids in order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::unique_ptr<IndexPage>& page : pages_) {
      if (page == nullptr) continue;
      for (const std::uint32_t s : page->slot) {
        if (s == kNoSlot) continue;
        const Slot& slot = SlotAt(s);
        fn(slot.flow, slot.path);
      }
    }
  }

  /// Calls `fn(const Flow&, PathRef)` for every live flow in slot (memory)
  /// order, which follows the history of adds and removals, not the ids.
  /// One linear pass over the chunks; for reductions that do not depend on
  /// order, or that sort what they keep.
  template <typename Fn>
  void ForEachInSlotOrder(Fn&& fn) const {
    std::size_t left = slot_count_;
    for (const std::unique_ptr<Slot[]>& chunk : chunks_) {
      const std::size_t n = left < kSlotsPerChunk ? left : kSlotsPerChunk;
      for (std::size_t i = 0; i < n; ++i) {
        const Slot& slot = chunk[i];
        if (slot.flow.id.valid()) fn(slot.flow, slot.path);
      }
      left -= n;
    }
  }

  /// The id the next Add() will assign (ids are never reused). Lets
  /// what-if overlays allocate ids numerically identical to the ids a copy
  /// of this table would have assigned.
  [[nodiscard]] FlowId::rep_type peek_next_id() const { return next_id_; }

  /// Honest byte footprint: the slot chunks (live and free slots), the
  /// index directory and its allocated pages, and the free list.
  [[nodiscard]] std::size_t ApproxBytes() const;

  /// Serializes the full table (flows in ascending-id order + the id
  /// allocator) for checkpointing. Paths are the network's section.
  void SaveState(BinWriter& w) const;

  /// Restores a table serialized by SaveState, replacing all contents;
  /// every loaded flow's path is invalid() until SetPath. Records may come
  /// in any order and take slots in that order. Allocates by the records
  /// read, never by the next id. Throws CorruptInput on a next id at or
  /// above 2^32 - 1, a record id at or above the next id, a duplicated
  /// record, an origin out of range, or a flow Add would refuse (demand
  /// not finite and positive, duration below 0 or NaN, src == dst).
  void LoadState(BinReader& r);

 private:
  struct Slot {
    Flow flow;  // flow.id invalid() marks a free slot
    PathRef path;
  };
  static constexpr std::size_t kSlotsPerChunk = 1024;
  static constexpr std::size_t kIdBitsPerPage = 12;
  static constexpr std::size_t kIdsPerPage = std::size_t{1} << kIdBitsPerPage;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  struct IndexPage {
    IndexPage() { slot.fill(kNoSlot); }
    /// Stored ids of this page still live.
    std::uint32_t live = 0;
    /// Slot index by id offset within the page; kNoSlot = not live.
    std::array<std::uint32_t, kIdsPerPage> slot;
  };

  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);

  [[nodiscard]] std::uint32_t SlotIndexOf(FlowId id) const {
    const std::uint64_t page = id.value() >> kIdBitsPerPage;
    if (page >= pages_.size() || pages_[page] == nullptr) return kNoSlot;
    return pages_[page]->slot[id.value() & (kIdsPerPage - 1)];
  }
  [[nodiscard]] const Slot& SlotAt(std::uint32_t s) const {
    return chunks_[s / kSlotsPerChunk][s % kSlotsPerChunk];
  }
  [[nodiscard]] Slot& SlotAt(std::uint32_t s) {
    return chunks_[s / kSlotsPerChunk][s % kSlotsPerChunk];
  }
  [[nodiscard]] const Slot& SlotOf(FlowId id) const {
    const std::uint32_t s = SlotIndexOf(id);
    NU_EXPECTS(s != kNoSlot);
    return SlotAt(s);
  }
  /// Stores `flow` (id already set) in a free or new slot and indexes it.
  void Store(Flow flow, PathRef path);
  /// Frees the index page `page` when every id it covers was handed out
  /// and none is live any more.
  void ReleasePageIfDead(std::size_t page);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Slots handed out so far (live or free); chunks_ holds them in order.
  std::size_t slot_count_ = 0;
  /// Free slot indices, reused last-freed first.
  std::vector<std::uint32_t> free_;
  /// Index pages by id >> kIdBitsPerPage; null = no live id there.
  std::vector<std::unique_ptr<IndexPage>> pages_;
  std::size_t live_ = 0;
  FlowId::rep_type next_id_ = 0;
};

}  // namespace nu::flow
