#include "net/overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

namespace nu::net {
namespace {

using topo::FatTree;
using topo::FatTreeConfig;
using topo::FatTreePathProvider;
using topo::Path;

/// Fat tree with some background flows placed, plus a deep copy and an
/// overlay over the same base — the differential pair under test.
struct DiffFixture {
  DiffFixture()
      : ft(FatTreeConfig{.k = 4, .link_capacity = 100.0}),
        provider(ft),
        base(ft.graph()) {
    Rng rng(7);
    for (int i = 0; i < 24; ++i) {
      const flow::Flow f = RandomFlow(rng, 1.0 + rng.Uniform(0.0, 9.0));
      const auto& paths = provider.Paths(f.src, f.dst);
      const Path& p = paths[rng.Index(paths.size())];
      if (base.CanPlace(f.demand, p)) base.Place(f, p);
    }
  }

  [[nodiscard]] flow::Flow RandomFlow(Rng& rng, Mbps demand) const {
    flow::Flow f;
    f.src = ft.host(rng.Index(ft.host_count()));
    do {
      f.dst = ft.host(rng.Index(ft.host_count()));
    } while (f.dst == f.src);
    f.demand = demand;
    f.duration = 1.0;
    return f;
  }

  FatTree ft;
  FatTreePathProvider provider;
  Network base;
};

/// Every read both states can answer must agree bit-for-bit.
void ExpectIdentical(const NetworkView& overlay, const Network& copy,
                     std::span<const FlowId> ids) {
  const Mbps* row = overlay.ResidualData();
  ASSERT_NE(row, nullptr);
  const std::span<const Mbps> copy_row = copy.ResidualArray();
  for (std::size_t i = 0; i < copy_row.size(); ++i) {
    ASSERT_EQ(row[i], copy_row[i]) << "row element " << i;
  }
  for (const auto& l : copy.graph().links()) {
    ASSERT_EQ(overlay.Residual(l.id), copy.Residual(l.id))
        << "link " << l.id.value();
    ASSERT_TRUE(std::ranges::equal(overlay.LinkFlowIds(l.id),
                                   copy.LinkFlowIds(l.id)))
        << "link " << l.id.value();
    ASSERT_EQ(overlay.FlowCountOnLink(l.id), copy.FlowCountOnLink(l.id));
  }
  ASSERT_EQ(overlay.FlowIdUpperBound(), copy.FlowIdUpperBound());
  for (FlowId id : ids) {
    ASSERT_EQ(overlay.HasFlow(id), copy.HasFlow(id)) << id.value();
    if (!copy.HasFlow(id)) continue;
    ASSERT_EQ(overlay.FlowOf(id).demand, copy.FlowOf(id).demand);
    ASSERT_EQ(overlay.PathOf(id), copy.PathOf(id));
    for (const auto& l : copy.graph().links()) {
      ASSERT_EQ(overlay.FlowUsesLink(id, l.id), copy.FlowUsesLink(id, l.id));
    }
  }
}

TEST(OverlayTest, FreshOverlayReadsFallThrough) {
  DiffFixture fx;
  NetworkOverlay overlay(fx.base);
  std::vector<FlowId> ids;
  for (FlowId::rep_type i = 0; i < fx.base.FlowIdUpperBound(); ++i) {
    ids.push_back(FlowId{i});
  }
  ExpectIdentical(overlay, fx.base, ids);
  // No write yet: the overlay serves the base's own row, not a copy.
  EXPECT_EQ(overlay.ResidualData(), fx.base.ResidualData());
}

TEST(OverlayTest, RandomOpsMatchDeepCopy) {
  DiffFixture fx;
  NetworkOverlay overlay(fx.base);
  Network copy = fx.base;
  Rng rng(99);

  // All ids ever seen (base flows + everything placed below), including
  // removed ones — HasFlow must agree on those too.
  std::vector<FlowId> ids;
  for (FlowId::rep_type i = 0; i < fx.base.FlowIdUpperBound(); ++i) {
    ids.push_back(FlowId{i});
  }
  std::vector<FlowId> live = ids;

  for (int step = 0; step < 200; ++step) {
    const std::size_t op = rng.Index(3);
    if (op == 0) {  // place
      const flow::Flow f = fx.RandomFlow(rng, 1.0 + rng.Uniform(0.0, 4.0));
      const auto& paths = fx.provider.Paths(f.src, f.dst);
      const Path& p = paths[rng.Index(paths.size())];
      if (!copy.CanPlace(f.demand, p)) continue;
      ASSERT_TRUE(overlay.CanPlace(f.demand, p));
      const FlowId oid = overlay.Place(f, p);
      const FlowId cid = copy.Place(f, p);
      ASSERT_EQ(oid, cid);  // id chaining via FlowIdUpperBound
      ids.push_back(cid);
      live.push_back(cid);
    } else if (op == 1 && !live.empty()) {  // remove
      const std::size_t pick = rng.Index(live.size());
      const FlowId id = live[pick];
      overlay.Remove(id);
      copy.Remove(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (op == 2 && !live.empty()) {  // reroute
      const FlowId id = live[rng.Index(live.size())];
      const flow::Flow& f = copy.FlowOf(id);
      const auto& paths = fx.provider.Paths(f.src, f.dst);
      const Path& p = paths[rng.Index(paths.size())];
      if (p == copy.PathOf(id)) continue;
      // Feasibility must agree; skip infeasible targets on both.
      const bool can = copy.CanReroute(id, p);
      ASSERT_EQ(overlay.CanReroute(id, p), can);
      if (!can) continue;
      overlay.Reroute(id, p);
      copy.Reroute(id, p);
    }
    ExpectIdentical(overlay, copy, ids);
  }
}

TEST(OverlayTest, BaseIsNeverMutated) {
  DiffFixture fx;
  std::vector<Mbps> before;
  for (const auto& l : fx.base.graph().links()) {
    before.push_back(fx.base.Residual(l.id));
  }
  const Mbps* base_row = fx.base.ResidualData();
  const std::vector<Mbps> row_before(base_row,
                                     base_row + fx.base.graph().link_count());
  const auto flows_before = fx.base.FlowIdUpperBound();
  const auto epoch_before = fx.base.state_epoch();

  NetworkOverlay overlay(fx.base);
  Rng rng(3);
  const flow::Flow f = fx.RandomFlow(rng, 2.0);
  const Path& p = fx.provider.Paths(f.src, f.dst).front();
  const FlowId id = overlay.Place(f, p);
  overlay.Remove(FlowId{0});
  overlay.Remove(id);

  std::size_t i = 0;
  for (const auto& l : fx.base.graph().links()) {
    EXPECT_EQ(fx.base.Residual(l.id), before[i++]);
  }
  // The overlay wrote its own copy of the row; the base's is untouched.
  EXPECT_NE(overlay.ResidualData(), fx.base.ResidualData());
  EXPECT_EQ(fx.base.ResidualData(), base_row);
  const std::span<const Mbps> row_after = fx.base.ResidualArray();
  EXPECT_TRUE(std::equal(row_after.begin(), row_after.end(),
                         row_before.begin(), row_before.end()));
  EXPECT_EQ(fx.base.FlowIdUpperBound(), flows_before);
  EXPECT_EQ(fx.base.state_epoch(), epoch_before);
  EXPECT_TRUE(fx.base.HasFlow(FlowId{0}));
  EXPECT_FALSE(overlay.HasFlow(FlowId{0}));
}

TEST(OverlayTest, OverlayOverOverlayMatchesDeepCopy) {
  DiffFixture fx;
  NetworkOverlay outer(fx.base);
  Network copy = fx.base;
  Rng rng(11);

  // Mutate the outer layer, then stack an inner overlay (the shape the
  // planner's migration what-ifs create inside a co-feasibility scratch).
  const flow::Flow f1 = fx.RandomFlow(rng, 2.0);
  const Path& p1 = fx.provider.Paths(f1.src, f1.dst).front();
  ASSERT_EQ(outer.Place(f1, p1), copy.Place(f1, p1));
  outer.Remove(FlowId{0});
  copy.Remove(FlowId{0});

  // Through the view: NetworkOverlay(outer) would pick the implicit copy
  // constructor and clone the outer layer instead of stacking on it.
  const NetworkView& outer_view = outer;
  NetworkOverlay inner(outer_view);
  Network inner_copy = copy;
  std::vector<FlowId> ids;
  for (FlowId::rep_type i = 0; i < copy.FlowIdUpperBound(); ++i) {
    ids.push_back(FlowId{i});
  }
  // Unwritten, the inner layer serves the outer layer's row.
  EXPECT_EQ(inner.ResidualData(), outer.ResidualData());
  ExpectIdentical(inner, inner_copy, ids);

  const flow::Flow f2 = fx.RandomFlow(rng, 3.0);
  const Path& p2 = fx.provider.Paths(f2.src, f2.dst).front();
  ASSERT_EQ(inner.Place(f2, p2), inner_copy.Place(f2, p2));
  ids.push_back(FlowId{inner_copy.FlowIdUpperBound() - 1});
  EXPECT_NE(inner.ResidualData(), outer.ResidualData());
  ExpectIdentical(inner, inner_copy, ids);
  // The outer layer must not have seen the inner mutation.
  ExpectIdentical(outer, copy, ids);
}

/// Residual rows, link lists and placements of `a` and `b` agree exactly.
void ExpectSameState(const NetworkView& a, const NetworkView& b) {
  const std::size_t links = a.graph().link_count();
  for (std::size_t i = 0; i < links; ++i) {
    ASSERT_EQ(a.ResidualData()[i], b.ResidualData()[i]) << "link " << i;
    const LinkId link{static_cast<LinkId::rep_type>(i)};
    const std::span<const std::uint32_t> on_a = a.LinkFlowIds(link);
    const std::span<const std::uint32_t> on_b = b.LinkFlowIds(link);
    ASSERT_TRUE(std::equal(on_a.begin(), on_a.end(), on_b.begin(), on_b.end()))
        << "link " << i;
  }
  ASSERT_EQ(a.FlowIdUpperBound(), b.FlowIdUpperBound());
  for (FlowId::rep_type i = 0; i < a.FlowIdUpperBound(); ++i) {
    const FlowId id{i};
    ASSERT_EQ(a.HasFlow(id), b.HasFlow(id)) << i;
    if (a.HasFlow(id)) {
      ASSERT_EQ(a.PathRefOf(id), b.PathRefOf(id)) << i;
    }
  }
}

/// Runs one random Place/Reroute/Remove sequence on `by_path` through the
/// path forms and on `by_ref` through the ref forms (both views share one
/// registry), comparing the two states after every step.
void RunRefAgainstPath(const DiffFixture& fx, MutableNetwork& by_path,
                         MutableNetwork& by_ref, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowId> live;
  for (FlowId::rep_type i = 0; i < by_path.FlowIdUpperBound(); ++i) {
    if (by_path.HasFlow(FlowId{i})) live.push_back(FlowId{i});
  }
  std::size_t reroutes = 0;
  for (int step = 0; step < 150; ++step) {
    const std::size_t op = rng.Index(3);
    if (op == 0) {
      const flow::Flow f = fx.RandomFlow(rng, 1.0 + rng.Uniform(0.0, 4.0));
      const auto& paths = fx.provider.Paths(f.src, f.dst);
      const Path& p = paths[rng.Index(paths.size())];
      if (!by_path.CanPlace(f.demand, p)) continue;
      const FlowId id = by_path.Place(f, p);
      ASSERT_EQ(by_ref.Place(f, by_ref.path_registry().Intern(p)), id);
      live.push_back(id);
    } else if (op == 1 && !live.empty()) {
      const std::size_t pick = rng.Index(live.size());
      by_path.Remove(live[pick]);
      by_ref.Remove(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (op == 2 && !live.empty()) {
      const FlowId id = live[rng.Index(live.size())];
      const flow::Flow& f = by_path.FlowOf(id);
      const auto& paths = fx.provider.Paths(f.src, f.dst);
      const Path& p = paths[rng.Index(paths.size())];
      if (!by_path.CanReroute(id, p)) continue;
      by_path.Reroute(id, p);
      by_ref.Reroute(id, by_ref.path_registry().Intern(p));
      ++reroutes;
    }
    ExpectSameState(by_path, by_ref);
  }
  EXPECT_GT(reroutes, 0u);
}

TEST(PlaceByRefTest, RefFormsMatchPathFormsOnNetwork) {
  DiffFixture fx;
  Network by_path = fx.base;  // copies share the base's registry
  Network by_ref = fx.base;
  RunRefAgainstPath(fx, by_path, by_ref, 21);
}

TEST(PlaceByRefTest, RefFormsMatchPathFormsOnStackedOverlay) {
  DiffFixture fx;
  NetworkOverlay lower_path(fx.base);
  NetworkOverlay lower_ref(fx.base);
  RunRefAgainstPath(fx, lower_path, lower_ref, 22);
  // Stack through the view (see OverlayOverOverlayMatchesDeepCopy).
  const NetworkView& lower_path_view = lower_path;
  const NetworkView& lower_ref_view = lower_ref;
  NetworkOverlay upper_path(lower_path_view);
  NetworkOverlay upper_ref(lower_ref_view);
  RunRefAgainstPath(fx, upper_path, upper_ref, 23);
}

TEST(NetworkEpochTest, StateEpochBumpsOnEveryMutation) {
  DiffFixture fx;
  Network net = fx.base;
  auto epoch = net.state_epoch();

  Rng rng(13);
  const flow::Flow f = fx.RandomFlow(rng, 2.0);
  const Path& p = fx.provider.Paths(f.src, f.dst).front();
  const FlowId id = net.Place(f, p);
  EXPECT_GT(net.state_epoch(), epoch);
  epoch = net.state_epoch();

  const auto& paths = fx.provider.Paths(f.src, f.dst);
  if (paths.size() > 1) {
    net.Reroute(id, paths[1]);
    EXPECT_GT(net.state_epoch(), epoch);
    epoch = net.state_epoch();
  }

  net.Remove(id);
  EXPECT_GT(net.state_epoch(), epoch);
  epoch = net.state_epoch();

  const LinkId some_link = net.graph().links().front().id;
  net.SetLinkUp(some_link, false);
  EXPECT_GT(net.state_epoch(), epoch);
  epoch = net.state_epoch();
  // No-op transition: already down — the epoch must NOT move (cache stays
  // valid when nothing changed).
  net.SetLinkUp(some_link, false);
  EXPECT_EQ(net.state_epoch(), epoch);
  net.SetLinkUp(some_link, true);
  EXPECT_GT(net.state_epoch(), epoch);
}

}  // namespace
}  // namespace nu::net
