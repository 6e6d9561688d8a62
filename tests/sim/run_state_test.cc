// Snapshot readers of the event loop's per-entry and per-event state. Each
// restored index is checked against its bound, so a snapshot with a valid
// CRC but an out-of-range index throws CorruptInput — and recovery falls
// back to an older snapshot — instead of aborting or reading out of bounds
// when the entry later fires. One test per checked field: the first value
// past the bound throws, the last value inside it loads.
#include "sim/run_state.h"

#include <gtest/gtest.h>

#include <vector>

namespace nu::sim {
namespace {

flow::Flow SomeFlow() {
  flow::Flow f;
  f.demand = 1.0;
  f.duration = 1.0;
  return f;
}

/// Two events (ids 7 and 9, with 3 flows and 1 flow), a fault plan of 2
/// specs, 1 dynamic fault, and a 20-node graph.
struct Fixture {
  Fixture() {
    events.emplace_back(EventId{7}, 0.0,
                        std::vector<flow::Flow>(3, SomeFlow()));
    events.emplace_back(EventId{9}, 0.0,
                        std::vector<flow::Flow>(1, SomeFlow()));
    for (const update::UpdateEvent& e : events) {
      index.emplace(e.id().value(), &e);
    }
  }

  /// Round-trips `occ` through its writer and reader.
  [[nodiscard]] Occurrence RoundTrip(const Occurrence& occ) const {
    BinWriter w;
    occ.Save(w);
    BinReader r(w.buffer());
    return Occurrence::Load(r, OccurrenceBounds{index, 2, 1, 20});
  }

  /// An active event of event 7 (3 flows) with nothing in flight.
  [[nodiscard]] ActiveEvent Active() const {
    ActiveEvent ae;
    ae.event = &events.front();
    return ae;
  }

  [[nodiscard]] ActiveEvent RoundTrip(const ActiveEvent& ae) const {
    BinWriter w;
    ae.Save(w);
    BinReader r(w.buffer());
    return ActiveEvent::Load(r, index);
  }

  std::vector<update::UpdateEvent> events;
  EventIndex index;
};

Occurrence Make(Occurrence::Kind kind, std::size_t fault_index,
                EventId event = EventId::invalid()) {
  return Occurrence{kind, FlowId{3}, event, fault_index, {}};
}

TEST(RunStateLoadTest, FaultIndexBoundedByPlanSpecs) {
  const Fixture fx;
  EXPECT_THROW((void)fx.RoundTrip(Make(Occurrence::Kind::kFault, 2)),
               CorruptInput);
  EXPECT_EQ(fx.RoundTrip(Make(Occurrence::Kind::kFault, 1)).fault_index, 1u);
}

TEST(RunStateLoadTest, CascadeIndexBoundedByDynamicFaults) {
  const Fixture fx;
  EXPECT_THROW((void)fx.RoundTrip(Make(Occurrence::Kind::kCascadeFault, 1)),
               CorruptInput);
  EXPECT_EQ(fx.RoundTrip(Make(Occurrence::Kind::kCascadeFault, 0)).fault_index,
            0u);
}

TEST(RunStateLoadTest, GreySwitchBoundedByNodeCount) {
  const Fixture fx;
  for (const Occurrence::Kind kind :
       {Occurrence::Kind::kGreyApply, Occurrence::Kind::kRuleLoss}) {
    EXPECT_THROW((void)fx.RoundTrip(Make(kind, 20)), CorruptInput);
    EXPECT_EQ(fx.RoundTrip(Make(kind, 19)).fault_index, 19u);
  }
}

TEST(RunStateLoadTest, EventIdMustNameARunEvent) {
  const Fixture fx;
  for (const Occurrence::Kind kind :
       {Occurrence::Kind::kInstallDone, Occurrence::Kind::kInstallAborted,
        Occurrence::Kind::kWatchdog, Occurrence::Kind::kRequeue}) {
    EXPECT_THROW((void)fx.RoundTrip(Make(kind, 0, EventId{8})), CorruptInput);
    EXPECT_EQ(fx.RoundTrip(Make(kind, 0, EventId{9})).event, EventId{9});
  }
}

TEST(RunStateLoadTest, InstallBatchBoundedByFlowCount) {
  const Fixture fx;
  for (const Occurrence::Kind kind :
       {Occurrence::Kind::kInstallDone, Occurrence::Kind::kInstallAborted}) {
    Occurrence occ = Make(kind, 0, EventId{7});
    occ.flows = {FlowId{1}, FlowId{2}, FlowId{3}, FlowId{4}};
    EXPECT_THROW((void)fx.RoundTrip(occ), CorruptInput);
    occ.flows.pop_back();
    EXPECT_EQ(fx.RoundTrip(occ).flows.size(), 3u);
  }
}

TEST(RunStateLoadTest, InstalledCountBoundedByFlowCount) {
  const Fixture fx;
  ActiveEvent ae = fx.Active();
  ae.installed = 4;
  EXPECT_THROW((void)fx.RoundTrip(ae), CorruptInput);
  ae.installed = 3;
  EXPECT_EQ(fx.RoundTrip(ae).installed, 3u);
}

TEST(RunStateLoadTest, DeferredIndexBoundedByFlowCount) {
  const Fixture fx;
  ActiveEvent ae = fx.Active();
  ae.deferred = {0, 3};
  EXPECT_THROW((void)fx.RoundTrip(ae), CorruptInput);
  ae.deferred = {0, 2};
  EXPECT_EQ(fx.RoundTrip(ae).deferred, ae.deferred);
}

TEST(RunStateLoadTest, FlowIndexBoundedByFlowCount) {
  const Fixture fx;
  ActiveEvent ae = fx.Active();
  ae.flow_index = {{11, 3}};
  EXPECT_THROW((void)fx.RoundTrip(ae), CorruptInput);
  ae.flow_index = {{11, 2}};
  EXPECT_EQ(fx.RoundTrip(ae).flow_index, ae.flow_index);
}

TEST(RunStateLoadTest, PendingRecoveryBoundedByFlowCount) {
  const Fixture fx;
  ActiveEvent ae = fx.Active();
  ae.pending_recovery = {{3, {1.5, true}}};
  EXPECT_THROW((void)fx.RoundTrip(ae), CorruptInput);
  ae.pending_recovery = {{2, {1.5, true}}};
  const ActiveEvent loaded = fx.RoundTrip(ae);
  ASSERT_EQ(loaded.pending_recovery.count(2), 1u);
  EXPECT_EQ(loaded.pending_recovery.at(2).time, 1.5);
  EXPECT_TRUE(loaded.pending_recovery.at(2).srlg);
}

TEST(RunStateLoadTest, ActiveEventMustNameARunEvent) {
  const Fixture fx;
  const update::UpdateEvent stranger(EventId{8}, 0.0, {SomeFlow()});
  ActiveEvent ae = fx.Active();
  ae.event = &stranger;
  EXPECT_THROW((void)fx.RoundTrip(ae), CorruptInput);
  ae.event = &fx.events.back();
  EXPECT_EQ(fx.RoundTrip(ae).event, &fx.events.back());
}

}  // namespace
}  // namespace nu::sim
