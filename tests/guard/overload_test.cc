// Overload admission control: policy parsing and shed-victim selection on a
// full queue (reject-new tail drop, shed-oldest head drop, shed-costliest
// cost-ranked drop).
#include "guard/overload.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "common/text.h"
#include "topo/path_provider.h"

namespace nu::guard {
namespace {

struct Fixture {
  Fixture() {
    a = graph.AddNode(topo::NodeRole::kHost);
    b = graph.AddNode(topo::NodeRole::kHost);
    graph.AddBidirectional(a, b, 100.0);
    provider.emplace(graph, 2);
    network.emplace(graph);
  }

  [[nodiscard]] flow::Flow MakeFlow(Mbps demand) const {
    flow::Flow f;
    f.src = a;
    f.dst = b;
    f.demand = demand;
    f.duration = 1.0;
    return f;
  }

  [[nodiscard]] update::UpdateEvent Event(std::uint64_t id,
                                          Mbps demand) const {
    return update::UpdateEvent(EventId{id}, 0.0, {MakeFlow(demand)});
  }

  /// Occupies `demand` of the a->b capacity so later flows see a deficit.
  void Occupy(Mbps demand) {
    const std::array<NodeId, 2> seq{a, b};
    network->Place(MakeFlow(demand), graph.MakePath(seq));
  }

  topo::Graph graph;
  NodeId a, b;
  std::optional<topo::KspPathProvider> provider;
  std::optional<net::Network> network;
};

TEST(OverloadPolicyTest, ToStringParseRoundTrips) {
  for (const auto policy :
       {OverloadPolicy::kRejectNew, OverloadPolicy::kShedOldest,
        OverloadPolicy::kShedCostliest}) {
    EXPECT_EQ(ParseOverloadPolicy(ToString(policy)), policy);
  }
  for (const char* name : {"bogus", "", "shed_oldest"}) {
    EXPECT_THROW((void)ParseOverloadPolicy(name), CorruptInput) << name;
  }
}

TEST(OverloadConfigTest, ZeroBoundDisables) {
  OverloadConfig config;
  EXPECT_FALSE(config.enabled());
  config.max_queue_length = 1;
  EXPECT_TRUE(config.enabled());
}

TEST(ChooseShedVictimTest, RejectNewAlwaysShedsIncoming) {
  Fixture fx;
  const OverloadConfig config{1, OverloadPolicy::kRejectNew};
  const update::UpdateEvent queued = fx.Event(0, 10.0);
  const update::UpdateEvent incoming = fx.Event(1, 10.0);
  const std::array<const update::UpdateEvent*, 1> queue{&queued};
  EXPECT_EQ(ChooseShedVictim(config, queue, incoming, *fx.network,
                             *fx.provider),
            std::nullopt);
}

TEST(ChooseShedVictimTest, ShedOldestPicksTheHead) {
  Fixture fx;
  const OverloadConfig config{2, OverloadPolicy::kShedOldest};
  const update::UpdateEvent q0 = fx.Event(0, 10.0);
  const update::UpdateEvent q1 = fx.Event(1, 10.0);
  const update::UpdateEvent incoming = fx.Event(2, 10.0);
  const std::array<const update::UpdateEvent*, 2> queue{&q0, &q1};
  EXPECT_EQ(ChooseShedVictim(config, queue, incoming, *fx.network,
                             *fx.provider),
            std::optional<std::size_t>{0});
}

TEST(ChooseShedVictimTest, ShedCostliestPicksLargestDeficit) {
  Fixture fx;
  fx.Occupy(90.0);  // residual 10: demand > 10 has a deficit
  const OverloadConfig config{2, OverloadPolicy::kShedCostliest};
  const update::UpdateEvent cheap = fx.Event(0, 5.0);     // fits: score 0
  const update::UpdateEvent costly = fx.Event(1, 95.0);   // deficit 85
  const update::UpdateEvent incoming = fx.Event(2, 20.0);  // deficit 10
  const std::array<const update::UpdateEvent*, 2> queue{&cheap, &costly};
  EXPECT_EQ(ChooseShedVictim(config, queue, incoming, *fx.network,
                             *fx.provider),
            std::optional<std::size_t>{1});
}

TEST(ChooseShedVictimTest, ShedCostliestShedsIncomingOnTie) {
  Fixture fx;  // empty network: every candidate fits, all scores 0
  const OverloadConfig config{2, OverloadPolicy::kShedCostliest};
  const update::UpdateEvent q0 = fx.Event(0, 5.0);
  const update::UpdateEvent q1 = fx.Event(1, 5.0);
  const update::UpdateEvent incoming = fx.Event(2, 5.0);
  const std::array<const update::UpdateEvent*, 2> queue{&q0, &q1};
  EXPECT_EQ(ChooseShedVictim(config, queue, incoming, *fx.network,
                             *fx.provider),
            std::nullopt);
}

TEST(ChooseShedVictimTest, ShedCostliestShedsIncomingWhenCostliest) {
  Fixture fx;
  fx.Occupy(90.0);
  const OverloadConfig config{2, OverloadPolicy::kShedCostliest};
  const update::UpdateEvent q0 = fx.Event(0, 5.0);
  const update::UpdateEvent q1 = fx.Event(1, 20.0);
  const update::UpdateEvent incoming = fx.Event(2, 95.0);
  const std::array<const update::UpdateEvent*, 2> queue{&q0, &q1};
  EXPECT_EQ(ChooseShedVictim(config, queue, incoming, *fx.network,
                             *fx.provider),
            std::nullopt);
}

}  // namespace
}  // namespace nu::guard
