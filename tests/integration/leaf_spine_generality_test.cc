// Generality: the update abstraction, migration optimizer and schedulers
// only see PathProvider + Network, so they must work unchanged on a
// leaf-spine fabric (and the qualitative scheduler ordering should carry
// over).
#include <gtest/gtest.h>

#include "guard/auditor.h"
#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/leaf_spine.h"
#include "topo/path_provider.h"
#include "trace/background.h"
#include "trace/benson.h"
#include "trace/yahoo_like.h"
#include "update/event_generator.h"

namespace nu {
namespace {

struct LeafSpineFixture {
  LeafSpineFixture()
      : fabric(topo::LeafSpineConfig{.leaves = 6,
                                     .spines = 4,
                                     .hosts_per_leaf = 4,
                                     .host_link_capacity = 1000.0,
                                     .fabric_link_capacity = 1000.0}),
        provider(fabric),
        network(fabric.graph()) {
    trace::YahooLikeGenerator gen(fabric.hosts(), Rng(31));
    trace::BackgroundOptions options;
    options.target_utilization = 0.6;
    options.target_fabric_utilization = true;
    options.link_headroom = 0.05;
    options.host_link_headroom = 0.3;
    options.random_path_seed = 99;
    trace::InjectBackground(network, provider, gen, options);
  }

  std::vector<update::UpdateEvent> MakeEvents(std::size_t count) {
    trace::BensonGenerator flows(fabric.hosts(), Rng(32));
    update::EventGenerator gen(flows, Rng(33));
    update::SyntheticEventConfig shape;
    shape.min_flows = 5;
    shape.max_flows = 25;
    return gen.Batch(count, shape);
  }

  topo::LeafSpine fabric;
  topo::LeafSpinePathProvider provider;
  net::Network network;
};

TEST(LeafSpineGeneralityTest, AllSchedulersCompleteOnLeafSpine) {
  LeafSpineFixture fx;
  const auto events = fx.MakeEvents(8);
  sim::SimConfig config;
  config.seed = 5;
  sim::Simulator simulator(fx.network, fx.provider, config);
  for (const auto kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kLmtf,
        sched::SchedulerKind::kPlmtf}) {
    const auto scheduler = sched::MakeScheduler(kind);
    const sim::SimResult result = simulator.Run(*scheduler, events);
    EXPECT_EQ(result.records.size(), 8u) << sched::ToString(kind);
    for (const auto& rec : result.records) {
      EXPECT_GE(rec.completion, rec.exec_start);
    }
  }
}

TEST(LeafSpineGeneralityTest, MigrationWorksOnLeafSpine) {
  LeafSpineFixture fx;
  const update::MigrationOptimizer optimizer(fx.provider);
  // Probe many (demand, path) combinations; every feasible plan must be
  // sound (same property as on Fat-Trees).
  Rng rng(44);
  int feasible = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId src = fx.fabric.host(rng.Index(24));
    NodeId dst = fx.fabric.host(rng.Index(24));
    if (src == dst) continue;
    const auto& paths = fx.provider.Paths(src, dst);
    const topo::Path& desired = paths[rng.Index(paths.size())];
    const double demand = rng.Uniform(50.0, 400.0);
    net::Network scratch = fx.network;
    const auto plan = optimizer.Plan(scratch, demand, desired);
    if (!plan.feasible) continue;
    ++feasible;
    update::MigrationOptimizer::Apply(scratch, plan);
    EXPECT_TRUE(scratch.CanPlace(demand, desired));
    EXPECT_EQ(guard::Auditor().Audit(scratch, {}), 0u);
  }
  EXPECT_GT(feasible, 0);
}

TEST(LeafSpineGeneralityTest, PlmtfNoWorseThanFifoOnAverage) {
  LeafSpineFixture fx;
  const auto events = fx.MakeEvents(10);
  sim::SimConfig config;
  config.seed = 6;
  sim::Simulator simulator(fx.network, fx.provider, config);
  sched::FifoScheduler fifo;
  sched::PlmtfScheduler plmtf(sched::LmtfConfig{.alpha = 4});
  const auto rf = simulator.Run(fifo, events);
  const auto rp = simulator.Run(plmtf, events);
  EXPECT_LE(rp.report.avg_ect, rf.report.avg_ect * 1.05);
}

}  // namespace
}  // namespace nu
