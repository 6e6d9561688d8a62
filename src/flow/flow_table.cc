#include "flow/flow_table.h"

#include <algorithm>
#include <limits>

namespace nu::flow {

FlowTable::FlowTable(const FlowTable& other)
    : slot_count_(other.slot_count_),
      free_(other.free_),
      live_(other.live_),
      next_id_(other.next_id_) {
  // Slot for slot, so a copy walks its slots in the original's order.
  chunks_.reserve(other.chunks_.size());
  for (const std::unique_ptr<Slot[]>& chunk : other.chunks_) {
    auto copy = std::make_unique<Slot[]>(kSlotsPerChunk);
    std::copy_n(chunk.get(), kSlotsPerChunk, copy.get());
    chunks_.push_back(std::move(copy));
  }
  pages_.resize(other.pages_.size());
  for (std::size_t p = 0; p < pages_.size(); ++p) {
    if (other.pages_[p] != nullptr) {
      pages_[p] = std::make_unique<IndexPage>(*other.pages_[p]);
    }
  }
}

FlowTable& FlowTable::operator=(const FlowTable& other) {
  if (this != &other) *this = FlowTable(other);
  return *this;
}

FlowId FlowTable::Add(Flow flow, PathRef path) {
  // Dense stores keep 32-bit flow ids in link lists; the allocator staying
  // below 2^32 is a structural property (a run allocating 4 billion flows
  // is far past any supported scale), checked rather than assumed.
  NU_CHECK(next_id_ < std::numeric_limits<std::uint32_t>::max());
  NU_EXPECTS(flow.demand > 0.0);
  NU_EXPECTS(flow.duration >= 0.0);
  NU_EXPECTS(flow.src != flow.dst);
  const FlowId id{next_id_++};
  // The first id of a new page completes the page before it.
  const std::size_t page = id.value() >> kIdBitsPerPage;
  if (page > 0 && (id.value() & (kIdsPerPage - 1)) == 0) {
    ReleasePageIfDead(page - 1);
  }
  flow.id = id;
  Store(std::move(flow), path);
  return id;
}

void FlowTable::Store(Flow flow, PathRef path) {
  const std::size_t page = flow.id.value() >> kIdBitsPerPage;
  if (page >= pages_.size()) pages_.resize(page + 1);
  std::unique_ptr<IndexPage>& index = pages_[page];
  if (index == nullptr) index = std::make_unique<IndexPage>();
  std::uint32_t s = static_cast<std::uint32_t>(slot_count_);
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    if (slot_count_ == chunks_.size() * kSlotsPerChunk) {
      chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
    }
    ++slot_count_;
  }
  index->slot[flow.id.value() & (kIdsPerPage - 1)] = s;
  ++index->live;
  SlotAt(s) = Slot{std::move(flow), path};
  ++live_;
}

void FlowTable::Remove(FlowId id) {
  const std::uint32_t s = SlotIndexOf(id);
  NU_EXPECTS(s != kNoSlot);
  SlotAt(s) = Slot{};  // free: invalid flow id
  free_.push_back(s);
  const std::size_t page = id.value() >> kIdBitsPerPage;
  pages_[page]->slot[id.value() & (kIdsPerPage - 1)] = kNoSlot;
  --pages_[page]->live;
  ReleasePageIfDead(page);
  --live_;
}

void FlowTable::ReleasePageIfDead(std::size_t page) {
  // A page that still covers the next id can get new ids; keep it.
  if (page < pages_.size() && pages_[page] != nullptr &&
      pages_[page]->live == 0 &&
      (page + 1) << kIdBitsPerPage <= next_id_) {
    pages_[page].reset();
  }
}

std::size_t FlowTable::ApproxBytes() const {
  std::size_t bytes = chunks_.capacity() * sizeof(chunks_[0]) +
                      chunks_.size() * kSlotsPerChunk * sizeof(Slot) +
                      free_.capacity() * sizeof(free_[0]) +
                      pages_.capacity() * sizeof(pages_[0]);
  for (const std::unique_ptr<IndexPage>& page : pages_) {
    if (page != nullptr) bytes += sizeof(IndexPage);
  }
  return bytes;
}

void FlowTable::SaveState(BinWriter& w) const {
  w.U64(next_id_);
  w.Size(live_);
  ForEach([&w](const Flow& f, PathRef) {  // ascending ids: canonical bytes
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
  *this = FlowTable();
  next_id_ = r.U64();
  // Add's 32-bit bound: the link lists hold 32-bit ids.
  if (next_id_ >= std::numeric_limits<std::uint32_t>::max()) {
    throw CorruptInput("next flow id out of the 32-bit range");
  }
  // A length: bounded by the bytes left, so the slots are too.
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
    if (Contains(f.id)) throw CorruptInput("duplicated flow record");
    Store(std::move(f), PathRef::invalid());
  }
}

}  // namespace nu::flow
