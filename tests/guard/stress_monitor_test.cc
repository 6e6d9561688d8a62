// Differential test pinning the epoch-gated LinkStressMonitor to the
// full-sweep monitor it replaced. The reference copy below is the previous
// implementation verbatim: every observation walks every link through
// Network::LinkUp and Network::Utilization. The production monitor sweeps
// only when the observed network or its state epoch moved, and otherwise
// checks just the open episodes against the hold time; it must report the
// same links at the same virtual times and serialize the same bytes after
// every step, across random placements, removals, link and switch outages,
// quiet observations that cross the hold time, mid-run Reset/LoadState and
// a second network.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "guard/overload.h"
#include "net/network.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"

namespace nu::guard {
namespace {

// --- Reference: the full-sweep monitor, copied verbatim -----------------

namespace reference {

class LinkStressMonitor {
 public:
  using Options = guard::LinkStressMonitor::Options;

  explicit LinkStressMonitor(Options options) : options_(options) {}

  std::vector<LinkId> Observe(const net::Network& network, Seconds now) {
    const std::size_t links = network.graph().link_count();
    if (overload_since_.size() < links) {
      overload_since_.resize(links, -1.0);
      tripped_.resize(links, 0);
    }
    std::vector<LinkId> crossed;
    for (std::size_t i = 0; i < links; ++i) {
      const LinkId link{static_cast<LinkId::rep_type>(i)};
      if (!network.LinkUp(link)) {
        overload_since_[i] = -1.0;
        continue;
      }
      if (network.Utilization(link) >= options_.utilization_threshold) {
        if (overload_since_[i] < 0.0) overload_since_[i] = now;
        if (!tripped_[i] && now - overload_since_[i] >= options_.hold_time) {
          tripped_[i] = 1;
          crossed.push_back(link);
        }
      } else {
        overload_since_[i] = -1.0;
        tripped_[i] = 0;  // episode over: a future episode may trip again
      }
    }
    return crossed;
  }

  void Reset() {
    overload_since_.clear();
    tripped_.clear();
  }

  void SaveState(BinWriter& w) const {
    w.Seq(overload_since_, [](BinWriter& out, Seconds s) { out.F64(s); });
    w.Seq(tripped_, [](BinWriter& out, char t) { out.U8(t != 0 ? 1 : 0); });
  }

  void LoadState(BinReader& r) {
    r.Seq(overload_since_, [](BinReader& in, Seconds& s) { s = in.F64(); });
    r.Seq(tripped_, [](BinReader& in, char& t) {
      t = static_cast<char>(in.U8() != 0 ? 1 : 0);
    });
  }

 private:
  Options options_;
  std::vector<Seconds> overload_since_;
  std::vector<char> tripped_;
};

}  // namespace reference

// --- Randomized fabric -----------------------------------------------------

/// A k=4 fat tree and one network over it; `Mutate` applies one random
/// state change (every kind bumps the state epoch).
struct Fabric {
  explicit Fabric(Mbps capacity)
      : ft(topo::FatTreeConfig{.k = 4, .link_capacity = capacity}),
        provider(ft),
        network(ft.graph()) {}

  void Mutate(Rng& rng) {
    const std::size_t op = rng.Index(6);
    if (op <= 2 || network.placed_flow_count() == 0) {
      flow::Flow f;
      f.src = ft.host(rng.Index(ft.host_count()));
      do {
        f.dst = ft.host(rng.Index(ft.host_count()));
      } while (f.dst == f.src);
      f.demand = rng.Uniform(0.2, 0.7) * ft.graph().link(LinkId{0}).capacity;
      f.duration = 10.0;
      const auto& paths = provider.Paths(f.src, f.dst);
      const topo::Path& p = paths[rng.Index(paths.size())];
      if (op == 0) {
        network.ForcePlace(std::move(f), p);  // may overcommit
      } else if (network.CanPlace(f.demand, p)) {
        network.Place(std::move(f), p);
      }
    } else if (op == 3) {
      const std::vector<FlowId> placed = network.PlacedFlows();
      network.Remove(placed[rng.Index(placed.size())]);
    } else if (op == 4) {
      const LinkId link{
          static_cast<LinkId::rep_type>(rng.Index(ft.graph().link_count()))};
      network.SetLinkUp(link, !network.LinkUp(link));
    } else {
      // A switch outage moves the epoch without taking any link down.
      const NodeId node = ft.core(rng.Index(4));
      network.SetNodeUp(node, !network.NodeUp(node));
    }
  }

  topo::FatTree ft;
  topo::FatTreePathProvider provider;
  net::Network network;
};

std::string Bytes(const auto& monitor) {
  BinWriter w;
  monitor.SaveState(w);
  return w.buffer();
}

TEST(LinkStressMonitorDifferentialTest, MatchesFullSweepReference) {
  const LinkStressMonitor::Options options{.utilization_threshold = 0.6,
                                           .hold_time = 1.0};
  std::size_t crossings = 0;
  std::size_t quiet_crossings = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    Fabric first(100.0);
    Fabric second(60.0);
    Fabric* fabric = &first;
    LinkStressMonitor monitor(options);
    reference::LinkStressMonitor expected(options);
    std::string saved = Bytes(expected);
    Seconds now = 0.0;
    for (int step = 0; step < 500; ++step) {
      const std::size_t action = rng.Index(20);
      bool mutated = false;
      if (action < 8) {
        fabric->Mutate(rng);
        mutated = true;
      } else if (action == 8) {
        monitor.Reset();
        expected.Reset();
      } else if (action == 9) {
        // Restore an earlier snapshot while the network stays put: the
        // restored episodes differ from the gated monitor's memo.
        BinReader a(saved);
        monitor.LoadState(a);
        BinReader b(saved);
        expected.LoadState(b);
      } else if (action == 10) {
        saved = Bytes(expected);
      } else if (action == 11) {
        fabric = fabric == &first ? &second : &first;
      }
      // Otherwise a quiet observation: same network, same state epoch.
      now += rng.Uniform(0.0, 0.4);
      const std::vector<LinkId> got = monitor.Observe(fabric->network, now);
      const std::vector<LinkId> want = expected.Observe(fabric->network, now);
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      ASSERT_EQ(Bytes(monitor), Bytes(expected))
          << "seed " << seed << " step " << step;
      crossings += want.size();
      if (!mutated && action > 11) quiet_crossings += want.size();
    }
  }
  // The sequences exercise what the gate skips: episodes that cross the
  // hold time on an observation with no mutation before it.
  EXPECT_GT(crossings, 50u);
  EXPECT_GT(quiet_crossings, 10u);
}

TEST(LinkStressMonitorDifferentialTest, RowsOfDifferentLengthAreCorrupt) {
  // A payload a CRC-valid snapshot could carry: an episode row as long as
  // the fabric's link row and a shorter latch row. Loaded as is, the next
  // observation of an overloaded link would write past the latch row.
  Fabric fabric(100.0);
  flow::Flow f;
  f.src = fabric.ft.host(0);
  f.dst = fabric.ft.host(fabric.ft.host_count() - 1);
  f.demand = 150.0;
  f.duration = 10.0;
  const topo::Path path = fabric.provider.Paths(f.src, f.dst).front();
  fabric.network.ForcePlace(std::move(f), path);
  const std::size_t links = fabric.ft.graph().link_count();
  BinWriter w;
  w.Seq(std::vector<Seconds>(links, -1.0),
        [](BinWriter& out, Seconds s) { out.F64(s); });
  w.Seq(std::vector<char>(1, 0),
        [](BinWriter& out, char t) { out.U8(t != 0 ? 1 : 0); });
  LinkStressMonitor monitor({.utilization_threshold = 0.9, .hold_time = 0.0});
  BinReader r(w.buffer());
  EXPECT_THROW(monitor.LoadState(r), CorruptInput);
  // The rejected payload left nothing behind: the overloaded path trips.
  EXPECT_FALSE(monitor.Observe(fabric.network, 0.0).empty());
}

}  // namespace
}  // namespace nu::guard
