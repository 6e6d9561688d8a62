#include "flow/flow_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace nu::flow {
namespace {

Flow MakeFlow(Mbps demand = 10.0) {
  Flow f;
  f.src = NodeId{0};
  f.dst = NodeId{1};
  f.demand = demand;
  f.duration = 2.0;
  return f;
}

constexpr PathRef kPath{3};

TEST(FlowTableTest, AddAssignsSequentialIds) {
  FlowTable table;
  const FlowId a = table.Add(MakeFlow(), kPath);
  const FlowId b = table.Add(MakeFlow(), kPath);
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlowTableTest, GetReturnsStoredFlow) {
  FlowTable table;
  const FlowId id = table.Add(MakeFlow(42.0), kPath);
  const Flow& f = table.Get(id);
  EXPECT_EQ(f.id, id);
  EXPECT_DOUBLE_EQ(f.demand, 42.0);
  EXPECT_EQ(table.PathOf(id), kPath);
  table.SetPath(id, PathRef{9});
  EXPECT_EQ(table.PathOf(id), PathRef{9});
}

TEST(FlowTableTest, RemoveErases) {
  FlowTable table;
  const FlowId id = table.Add(MakeFlow(), kPath);
  EXPECT_TRUE(table.Contains(id));
  table.Remove(id);
  EXPECT_FALSE(table.Contains(id));
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTableTest, IdsNotReusedAfterRemove) {
  FlowTable table;
  const FlowId a = table.Add(MakeFlow(), kPath);
  table.Remove(a);
  const FlowId b = table.Add(MakeFlow(), kPath);
  EXPECT_NE(a, b);
}

// Freed slots are reused, ids are not: across page boundaries and slot
// reuse every Add returns the next id up.
TEST(FlowTableTest, IdsStayMonotonicAcrossSlotReuse) {
  FlowTable table;
  std::vector<FlowId> live;
  FlowId::rep_type expected = 0;
  for (int i = 0; i < 20000; ++i) {
    const FlowId id = table.Add(MakeFlow(1.0 + i % 7), PathRef{1});
    ASSERT_EQ(id.value(), expected++);
    live.push_back(id);
    if (live.size() > 5) {
      const auto victim = static_cast<std::ptrdiff_t>(i % 5);
      table.Remove(live[static_cast<std::size_t>(victim)]);
      live.erase(live.begin() + victim);
    }
  }
  EXPECT_EQ(table.size(), live.size());
  for (const FlowId id : live) EXPECT_TRUE(table.Contains(id));
  EXPECT_EQ(table.peek_next_id(), expected);
}

// A live flow's slot never moves: its address and contents hold while
// other flows come and go, slots are reused and new chunks are added.
TEST(FlowTableTest, LiveFlowAddressHoldsAcrossOtherAddsAndRemoves) {
  FlowTable table;
  const FlowId kept = table.Add(MakeFlow(77.0), PathRef{5});
  const Flow* address = &table.Get(kept);
  std::vector<FlowId> others;
  for (int i = 0; i < 5000; ++i) {
    others.push_back(table.Add(MakeFlow(1.0), kPath));
    if (i % 3 == 0) {
      const std::size_t victim = others.size() / 2;
      table.Remove(others[victim]);
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  for (const FlowId id : others) table.Remove(id);
  for (int i = 0; i < 3000; ++i) table.Add(MakeFlow(2.0), kPath);
  EXPECT_EQ(&table.Get(kept), address);
  EXPECT_EQ(address->id, kept);
  EXPECT_DOUBLE_EQ(address->demand, 77.0);
  EXPECT_EQ(table.PathOf(kept), PathRef{5});
}

// ForEach is ascending id even after reuse put later ids into earlier
// slots; ForEachInSlotOrder visits the same flows in memory order.
TEST(FlowTableTest, ForEachVisitsAscendingIds) {
  FlowTable table;
  std::vector<FlowId> ids;
  for (int i = 0; i < 6000; ++i) ids.push_back(table.Add(MakeFlow(), kPath));
  for (std::size_t i = 0; i < ids.size(); i += 2) table.Remove(ids[i]);
  for (int i = 0; i < 1000; ++i) table.Add(MakeFlow(), kPath);
  std::vector<FlowId::rep_type> seen;
  table.ForEach([&seen](const Flow& f, PathRef path) {
    EXPECT_EQ(path, kPath);
    seen.push_back(f.id.value());
  });
  ASSERT_EQ(seen.size(), table.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());

  std::vector<FlowId::rep_type> in_slots;
  table.ForEachInSlotOrder([&in_slots](const Flow& f, PathRef) {
    in_slots.push_back(f.id.value());
  });
  EXPECT_FALSE(std::is_sorted(in_slots.begin(), in_slots.end()));
  std::sort(in_slots.begin(), in_slots.end());
  EXPECT_EQ(in_slots, seen);
}

// The snapshot section is byte-for-byte the one the id-indexed store wrote
// for the same operations: size and CRC-32 pinned from that store.
TEST(FlowTableTest, SaveStateBytesArePinned) {
  FlowTable t;
  std::vector<FlowId> ids;
  for (int i = 0; i < 12; ++i) {
    Flow f;
    f.src = NodeId{static_cast<NodeId::rep_type>(i % 5)};
    f.dst = NodeId{static_cast<NodeId::rep_type>(i % 5 + 1)};
    f.demand = 1.5 + i;
    f.duration = 0.25 * i;
    f.origin = static_cast<FlowOrigin>(i % 3);
    if (i % 3 == 1) f.event = EventId{100u + static_cast<unsigned>(i)};
    ids.push_back(t.Add(f, PathRef{static_cast<PathRef::rep_type>(i)}));
  }
  t.Remove(ids[3]);
  t.Remove(ids[0]);
  t.Remove(ids[7]);
  for (int i = 12; i < 16; ++i) {
    Flow f;
    f.src = NodeId{7};
    f.dst = NodeId{2};
    f.demand = 3.0 * i;
    f.duration = 1.0;
    ids.push_back(t.Add(f, kPath));
  }
  t.Remove(ids[13]);
  t.Remove(ids[10]);
  BinWriter w;
  t.SaveState(w);
  EXPECT_EQ(w.buffer().size(), 467u);
  EXPECT_EQ(Crc32(w.buffer()), 0x6e4a00d3u);

  // A loaded copy re-saves the same bytes.
  FlowTable loaded;
  BinReader r(w.buffer());
  loaded.LoadState(r);
  r.ExpectEnd();
  BinWriter again;
  loaded.SaveState(again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

// The store follows live flows, not ids: 100k add/remove cycles with at
// most 8 flows live stay within one chunk, one or two index pages and a
// small directory.
TEST(FlowTableTest, ApproxBytesFollowsLiveFlows) {
  FlowTable table;
  std::vector<FlowId> live;
  for (int i = 0; i < 100000; ++i) {
    live.push_back(table.Add(MakeFlow(), kPath));
    if (live.size() == 8) {
      table.Remove(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(table.peek_next_id(), 100000u);
  EXPECT_LE(table.size(), 8u);
  EXPECT_LT(table.ApproxBytes(), 128u * 1024u);
}

// Records may come in any order: each takes the next slot, lookups and the
// ascending-id walk still work.
TEST(FlowTableTest, LoadsRecordsInAnyOrder) {
  BinWriter w;
  w.U64(10);  // next id
  w.Size(3);
  for (const std::uint64_t id : {7u, 2u, 5u}) {
    w.U64(id);
    w.U32(0);
    w.U32(1);
    w.F64(1.0 + static_cast<double>(id));
    w.F64(2.0);
    w.U8(0);
    w.U64(EventId::invalid().value());
  }
  FlowTable table;
  BinReader r(w.buffer());
  table.LoadState(r);
  r.ExpectEnd();
  std::vector<FlowId::rep_type> by_id;
  table.ForEach([&by_id](const Flow& f, PathRef path) {
    EXPECT_FALSE(path.valid());
    by_id.push_back(f.id.value());
  });
  EXPECT_EQ(by_id, (std::vector<FlowId::rep_type>{2, 5, 7}));
  std::vector<FlowId::rep_type> in_slots;
  table.ForEachInSlotOrder([&in_slots](const Flow& f, PathRef) {
    in_slots.push_back(f.id.value());
  });
  EXPECT_EQ(in_slots, (std::vector<FlowId::rep_type>{7, 2, 5}));
  EXPECT_DOUBLE_EQ(table.Get(FlowId{5}).demand, 6.0);
  EXPECT_EQ(table.Add(MakeFlow(), kPath).value(), 10u);
}

TEST(FlowTableTest, CopyKeepsSlotOrderAndIsIndependent) {
  FlowTable table;
  std::vector<FlowId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(table.Add(MakeFlow(), kPath));
  table.Remove(ids[2]);
  table.Add(MakeFlow(), kPath);  // reuses flow 2's slot
  FlowTable copy = table;
  const auto slot_order = [](const FlowTable& t) {
    std::vector<FlowId::rep_type> out;
    t.ForEachInSlotOrder(
        [&out](const Flow& f, PathRef) { out.push_back(f.id.value()); });
    return out;
  };
  EXPECT_EQ(slot_order(copy), slot_order(table));
  copy.Remove(ids[4]);
  EXPECT_TRUE(table.Contains(ids[4]));
  EXPECT_FALSE(copy.Contains(ids[4]));
}

TEST(FlowTest, VolumeIsDemandTimesDuration) {
  const Flow f = MakeFlow(10.0);
  EXPECT_DOUBLE_EQ(f.volume(), 20.0);
}

TEST(FlowTableDeathTest, RejectsBadFlows) {
  FlowTable table;
  Flow zero_demand = MakeFlow(0.0);
  EXPECT_DEATH(table.Add(std::move(zero_demand), kPath), "Precondition");
  Flow self_loop = MakeFlow();
  self_loop.dst = self_loop.src;
  EXPECT_DEATH(table.Add(std::move(self_loop), kPath), "Precondition");
}

TEST(FlowTableDeathTest, GetMissingDies) {
  FlowTable table;
  EXPECT_DEATH(static_cast<void>(table.Get(FlowId{7})), "Precondition");
}

}  // namespace
}  // namespace nu::flow
