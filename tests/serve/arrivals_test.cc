// Open-loop arrival generation: determinism, ordering, tenant tagging and
// SLO deadlines, rate scaling, and the non-homogeneous intensity shapes.
#include "serve/arrivals.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/text.h"
#include "topo/fat_tree.h"
#include "trace/uniform.h"

namespace nu::serve {
namespace {

struct Fixture {
  Fixture() : ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0}) {}

  [[nodiscard]] trace::UniformGenerator FlowSource(std::uint64_t seed) const {
    return trace::UniformGenerator(ft.hosts(), Rng(seed));
  }

  topo::FatTree ft;
};

ArrivalConfig BaseConfig() {
  ArrivalConfig config;
  config.rate = 2.0;
  config.duration = 100.0;
  config.min_flows = 2;
  config.max_flows = 5;
  config.tenants = {
      TenantSpec{.name = "a", .weight = 1.0, .priority = 2,
                 .slo_deadline = 30.0},
      TenantSpec{.name = "b", .weight = 3.0, .priority = 0,
                 .slo_deadline = 0.0},
  };
  return config;
}

TEST(ArrivalsTest, ParseAndToStringRoundTrip) {
  for (const ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
        ArrivalProcess::kDiurnal}) {
    EXPECT_EQ(ParseArrivalProcess(ToString(process)), process);
  }
  for (const char* name : {"bogus", "", "Poisson"}) {
    EXPECT_THROW((void)ParseArrivalProcess(name), CorruptInput) << name;
  }
}

TEST(ArrivalsTest, DeterministicAndOrdered) {
  const Fixture fx;
  const ArrivalConfig config = BaseConfig();
  trace::UniformGenerator source_a = fx.FlowSource(9);
  trace::UniformGenerator source_b = fx.FlowSource(9);
  const auto a = GenerateArrivals(config, source_a, 77);
  const auto b = GenerateArrivals(config, source_b, 77);

  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  Seconds prev = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_time(), b[i].arrival_time());
    EXPECT_EQ(a[i].tenant(), b[i].tenant());
    EXPECT_EQ(a[i].deadline(), b[i].deadline());
    EXPECT_EQ(a[i].flows().size(), b[i].flows().size());
    EXPECT_GE(a[i].arrival_time(), prev);
    EXPECT_LT(a[i].arrival_time(), config.duration);
    prev = a[i].arrival_time();
  }
}

TEST(ArrivalsTest, TenantTagsAndDeadlines) {
  const Fixture fx;
  const ArrivalConfig config = BaseConfig();
  trace::UniformGenerator source = fx.FlowSource(9);
  const auto events = GenerateArrivals(config, source, 77);

  std::map<TenantId, std::size_t> per_tenant;
  for (const update::UpdateEvent& e : events) {
    ASSERT_TRUE(e.tenant().valid());
    ASSERT_LT(e.tenant().value(), config.tenants.size());
    ++per_tenant[e.tenant()];
    const TenantSpec& spec = config.tenants[e.tenant().value()];
    if (spec.slo_deadline > 0.0) {
      // Deadline is absolute: arrival + the tenant's SLO.
      EXPECT_DOUBLE_EQ(e.deadline(), e.arrival_time() + spec.slo_deadline);
    } else {
      EXPECT_FALSE(e.HasDeadline());
    }
    EXPECT_GE(e.flows().size(), config.min_flows);
    EXPECT_LE(e.flows().size(), config.max_flows);
  }
  // Weighted draw 1:3 — the heavy tenant should dominate (loose band; the
  // stream is deterministic for this seed, so this cannot flake).
  EXPECT_GT(per_tenant[TenantId{1}], per_tenant[TenantId{0}]);
}

TEST(ArrivalsTest, CountTracksOfferedRate) {
  const Fixture fx;
  ArrivalConfig config = BaseConfig();
  config.duration = 500.0;
  for (const ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
        ArrivalProcess::kDiurnal}) {
    config.process = process;
    trace::UniformGenerator source = fx.FlowSource(9);
    const auto events = GenerateArrivals(config, source, 123);
    const double expected = config.rate * config.duration;
    // All processes are normalized to the same time-average rate.
    EXPECT_GT(static_cast<double>(events.size()), 0.8 * expected)
        << ToString(process);
    EXPECT_LT(static_cast<double>(events.size()), 1.2 * expected)
        << ToString(process);
  }
}

TEST(ArrivalsTest, IntensityFactorAveragesToOne) {
  ArrivalConfig config = BaseConfig();
  // A whole number of burst/diurnal periods, so the window average of the
  // modulation is exactly its long-run average.
  config.duration = 120.0;
  for (const ArrivalProcess process :
       {ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    config.process = process;
    double sum = 0.0;
    const int steps = 100000;
    for (int i = 0; i < steps; ++i) {
      const Seconds t = config.duration * (i + 0.5) / steps;
      const double f = IntensityFactor(config, t);
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, PeakIntensityFactor(config) + 1e-9);
      sum += f;
    }
    EXPECT_NEAR(sum / steps, 1.0, 0.02) << ToString(process);
  }
}

TEST(ArrivalsTest, EmptyRosterGetsDefaultTenant) {
  const Fixture fx;
  ArrivalConfig config = BaseConfig();
  config.tenants.clear();
  const auto effective = config.EffectiveTenants();
  ASSERT_EQ(effective.size(), 1u);
  EXPECT_EQ(effective[0].name, "tenant0");

  trace::UniformGenerator source = fx.FlowSource(9);
  const auto events = GenerateArrivals(config, source, 5);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().tenant(), TenantId{0});
}

TEST(ArrivalsTest, DifferentSeedsDifferentStreams) {
  const Fixture fx;
  const ArrivalConfig config = BaseConfig();
  trace::UniformGenerator source_a = fx.FlowSource(9);
  trace::UniformGenerator source_b = fx.FlowSource(9);
  const auto a = GenerateArrivals(config, source_a, 1);
  const auto b = GenerateArrivals(config, source_b, 2);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  // Same shape, different randomness: first arrivals differ.
  EXPECT_NE(a.front().arrival_time(), b.front().arrival_time());
}

}  // namespace
}  // namespace nu::serve
