// FlowTable owns flow descriptors and allocates ids. The network layer
// references flows by id only; the table is the single source of truth for
// flow attributes (endpoints, demand, duration, origin).
//
// Storage is a dense id-indexed slot store: ids are monotonic and never
// reused, so flow i lives in slot i and every lookup is O(1) indexing with
// no hashing. Slots are deque chunks, not one vector, so references handed
// out by Get()/FlowOf() stay valid across later Add() calls (the legacy
// unordered_map gave the same stability guarantee). A slot whose flow
// departed keeps only its invalid-id tombstone.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "common/binio.h"
#include "common/check.h"
#include "flow/flow.h"

namespace nu::flow {

class FlowTable {
 public:
  FlowTable() = default;

  /// Registers a flow; assigns and returns its id (ignores flow.id on input).
  FlowId Add(Flow flow);

  /// Removes a flow. Requires the flow to exist.
  void Remove(FlowId id);

  [[nodiscard]] bool Contains(FlowId id) const {
    return id.value() < slots_.size() &&
           slots_[static_cast<std::size_t>(id.value())].id.valid();
  }

  [[nodiscard]] const Flow& Get(FlowId id) const {
    NU_EXPECTS(Contains(id));
    return slots_[static_cast<std::size_t>(id.value())];
  }

  [[nodiscard]] Flow& GetMutable(FlowId id) {
    NU_EXPECTS(Contains(id));
    return slots_[static_cast<std::size_t>(id.value())];
  }

  [[nodiscard]] std::size_t size() const { return live_; }

  /// Snapshot of current flow ids (stable iteration order: ascending id).
  [[nodiscard]] std::vector<FlowId> Ids() const;

  /// Calls `fn(const Flow&)` for every live flow in ascending-id order.
  /// Cache-linear slot scan, no allocation.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Flow& f : slots_) {
      if (f.id.valid()) fn(f);
    }
  }

  /// The id the next Add() will assign (ids are never reused). Lets
  /// what-if overlays allocate ids numerically identical to the ids a copy
  /// of this table would have assigned.
  [[nodiscard]] FlowId::rep_type peek_next_id() const { return next_id_; }

  /// Sum of demands of all registered flows (Mbps).
  [[nodiscard]] Mbps TotalDemand() const;

  /// Honest byte footprint of the slot store (live and tombstoned slots —
  /// the high-water cost a deep copy would duplicate).
  [[nodiscard]] std::size_t ApproxBytes() const;

  /// Serializes the full table (flows in ascending-id order + the id
  /// allocator) for checkpointing.
  void SaveState(BinWriter& w) const;

  /// Restores a table serialized by SaveState, replacing all contents.
  /// Throws CorruptInput on a next id at or above 2^32 - 1, a record id at
  /// or above the next id, or a duplicated record.
  void LoadState(BinReader& r);

 private:
  /// Slot i holds the flow with id i, or a default Flow (invalid id) if
  /// that flow departed or was never assigned. size() == next_id_.
  std::deque<Flow> slots_;
  std::size_t live_ = 0;
  FlowId::rep_type next_id_ = 0;
};

}  // namespace nu::flow
