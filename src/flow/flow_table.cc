#include "flow/flow_table.h"

#include <limits>

namespace nu::flow {

FlowId FlowTable::Add(Flow flow) {
  // Dense stores keep 32-bit flow ids in link lists; the allocator staying
  // below 2^32 is a structural property (a run allocating 4 billion flows
  // is far past any supported scale), checked rather than assumed.
  NU_CHECK(next_id_ < std::numeric_limits<std::uint32_t>::max());
  const FlowId id{next_id_++};
  flow.id = id;
  NU_EXPECTS(flow.demand > 0.0);
  NU_EXPECTS(flow.duration >= 0.0);
  NU_EXPECTS(flow.src != flow.dst);
  slots_.push_back(std::move(flow));
  ++live_;
  return id;
}

void FlowTable::Remove(FlowId id) {
  NU_EXPECTS(Contains(id));
  slots_[static_cast<std::size_t>(id.value())] = Flow{};  // tombstone
  --live_;
}

std::vector<FlowId> FlowTable::Ids() const {
  std::vector<FlowId> ids;
  ids.reserve(live_);
  ForEach([&ids](const Flow& f) { ids.push_back(f.id); });
  return ids;
}

Mbps FlowTable::TotalDemand() const {
  Mbps total = 0.0;
  ForEach([&total](const Flow& f) { total += f.demand; });
  return total;
}

std::size_t FlowTable::ApproxBytes() const {
  return slots_.size() * sizeof(Flow);
}

void FlowTable::SaveState(BinWriter& w) const {
  w.U64(next_id_);
  w.Size(live_);
  ForEach([&w](const Flow& f) {  // ascending ids => canonical byte stream
    w.U64(f.id.value());
    w.U32(f.src.value());
    w.U32(f.dst.value());
    w.F64(f.demand);
    w.F64(f.duration);
    w.U8(static_cast<std::uint8_t>(f.origin));
    w.U64(f.event.value());
  });
}

void FlowTable::LoadState(BinReader& r) {
  slots_.clear();
  live_ = 0;
  next_id_ = r.U64();
  // Add's 32-bit bound: the link lists hold 32-bit ids.
  if (next_id_ >= std::numeric_limits<std::uint32_t>::max()) {
    throw CorruptInput("next flow id out of the 32-bit range");
  }
  slots_.resize(static_cast<std::size_t>(next_id_));
  const std::size_t count = r.Size();
  for (std::size_t i = 0; i < count; ++i) {
    Flow f;
    f.id = FlowId{r.U64()};
    f.src = NodeId{r.U32()};
    f.dst = NodeId{r.U32()};
    f.demand = r.F64();
    f.duration = r.F64();
    f.origin = static_cast<FlowOrigin>(r.U8());
    f.event = EventId{r.U64()};
    if (f.id.value() >= next_id_) {
      throw CorruptInput("flow record id at or above the next id");
    }
    Flow& slot = slots_[static_cast<std::size_t>(f.id.value())];
    if (slot.id.valid()) throw CorruptInput("duplicated flow record");
    slot = std::move(f);
    ++live_;
  }
}

}  // namespace nu::flow
