// Probe fast-path scaling: how much does a single what-if cost probe cost as
// the background-flow count grows, per probing mode?
//
//   legacy   — deep-copies the whole network per probe and plans on the
//              copy (the pre-overlay probe; the bench builds it from a
//              net::Network copy plus EventPlanner::Execute),
//   overlay  — plans on a copy-on-write NetworkOverlay (the default),
//   parallel — the overlay probes of one round's alpha candidates evaluated
//              concurrently on a thread pool (per-probe wall time),
//   cached   — an epoch-keyed probe-cost cache hit (the re-probe price when
//              the network state has not changed).
//
// Deep-copy cost is O(total state); overlay cost is one residual-row copy,
// O(links), plus the flow state a probe touches, so it does not grow with
// the background-flow count and the gap must widen with it. The acceptance
// bar is a >= 5x legacy/overlay ratio at the largest sweep point. Emits an
// ASCII table (+ optional txt/csv twins) and BENCH_probe.json.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "net/admission.h"
#include "net/network.h"
#include "net/overlay.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "update/planner.h"
#include "update/update_event.h"

using namespace nu;

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

flow::Flow RandomFlow(const topo::FatTree& ft, Rng& rng, Mbps lo, Mbps hi) {
  flow::Flow f;
  f.src = ft.host(rng.Index(ft.host_count()));
  do {
    f.dst = ft.host(rng.Index(ft.host_count()));
  } while (f.dst == f.src);
  f.demand = lo + rng.Uniform(0.0, hi - lo);
  f.duration = 1.0;
  return f;
}

/// Fills `network` with `count` placeable background flows.
void InjectFlows(net::Network& network, const topo::FatTree& ft,
                 const topo::PathProvider& provider, std::size_t count,
                 Rng& rng) {
  std::size_t placed = 0;
  std::size_t attempts = 0;
  while (placed < count && attempts < count * 20) {
    ++attempts;
    const flow::Flow f = RandomFlow(ft, rng, 1.0, 5.0);
    if (const auto path =
            net::FindFeasiblePath(network, provider, f.src, f.dst, f.demand,
                                  net::PathSelection::kWidest)) {
      network.Place(f, *path);
      ++placed;
    }
  }
}

std::vector<update::UpdateEvent> MakeEvents(const topo::FatTree& ft,
                                            std::size_t count,
                                            std::size_t flows_per_event,
                                            Rng& rng) {
  std::vector<update::UpdateEvent> events;
  for (std::uint64_t e = 0; e < count; ++e) {
    std::vector<flow::Flow> flows;
    for (std::size_t i = 0; i < flows_per_event; ++i) {
      flows.push_back(RandomFlow(ft, rng, 2.0, 8.0));
    }
    events.push_back(update::UpdateEvent(EventId{e}, 0.0, std::move(flows)));
  }
  return events;
}

struct ModeTimes {
  double legacy_us = 0.0;
  double overlay_us = 0.0;
  double parallel_us = 0.0;
  double cached_us = 0.0;
};

/// Mean per-probe wall time of each mode over `reps` rounds of `alpha`
/// candidate probes.
ModeTimes TimeProbes(const net::Network& network,
                     const update::EventPlanner& planner,
                     std::span<const update::UpdateEvent> events,
                     std::size_t alpha, std::size_t reps) {
  ModeTimes t;
  const std::size_t n = alpha * reps;

  auto start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < alpha; ++i) {
      net::Network copy = network;
      (void)planner.Execute(copy, events[i]);
    }
  }
  t.legacy_us = MicrosSince(start) / static_cast<double>(n);

  start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < alpha; ++i) {
      (void)planner.Plan(network, events[i]);
    }
  }
  t.overlay_us = MicrosSince(start) / static_cast<double>(n);

  {
    ThreadPool pool(alpha);
    start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      std::vector<std::future<update::EventPlan>> pending;
      pending.reserve(alpha);
      for (std::size_t i = 0; i < alpha; ++i) {
        const update::UpdateEvent& event = events[i];
        pending.push_back(pool.Submit(
            [&planner, &network, &event] {
              return planner.Plan(network, event);
            }));
      }
      for (auto& f : pending) (void)f.get();
    }
    t.parallel_us = MicrosSince(start) / static_cast<double>(n);
  }

  // A cache hit is an unordered_map find plus an epoch compare — time it
  // against the same event-id key set the simulator would use.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, Mbps>> cache;
  for (std::size_t i = 0; i < alpha; ++i) {
    cache[events[i].id().value()] = {network.state_epoch(), 1.0};
  }
  double sink = 0.0;
  const std::size_t cached_reps = reps * 1000;
  start = Clock::now();
  for (std::size_t r = 0; r < cached_reps; ++r) {
    for (std::size_t i = 0; i < alpha; ++i) {
      const auto it = cache.find(events[i].id().value());
      if (it != cache.end() && it->second.first == network.state_epoch()) {
        sink += it->second.second;
      }
    }
  }
  t.cached_us =
      MicrosSince(start) / static_cast<double>(cached_reps * alpha);
  if (sink < 0.0) std::printf("unreachable %f\n", sink);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  bench::PrintHeader(
      "Probe fast path: per-probe wall time vs background-flow count",
      quick ? "8-pod Fat-Tree, quick sweep (CI)"
            : "8-pod Fat-Tree, flows x alpha sweep, 5-flow events");

  const std::vector<std::size_t> flow_counts =
      quick ? std::vector<std::size_t>{250, 1000}
            : std::vector<std::size_t>{500, 1000, 2000, 5000};
  const std::vector<std::size_t> alphas{2, 4, 8};
  const std::size_t reps = flags.GetUint("reps", quick ? 5 : 20);
  const std::string json_path =
      flags.GetString("json", "BENCH_probe.json");
  const std::string csv_path = flags.GetString("csv", "");
  const std::string txt_path = flags.GetString("txt", "");

  // Capacity scaled so even the 5k-flow point places fully (demand <= 5).
  topo::FatTree ft(topo::FatTreeConfig{.k = 8, .link_capacity = 10000.0});
  topo::FatTreePathProvider provider(ft);
  const update::EventPlanner planner(provider, {},
                                     net::PathSelection::kWidest);

  AsciiTable table({"bg flows", "alpha", "copy KiB", "legacy us/probe",
                    "overlay us/probe", "speedup", "parallel us/probe",
                    "cached us/probe"});

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"probe_scaling\",\n  \"quick\": "
       << (quick ? "true" : "false") << ",\n  \"rows\": [\n";
  double final_speedup = 0.0;
  bool first_row = true;

  for (std::size_t flows : flow_counts) {
    net::Network network(ft.graph());
    Rng rng(4242);
    InjectFlows(network, ft, provider, flows, rng);
    const auto events = MakeEvents(ft, alphas.back(), 5, rng);
    const double copy_kib =
        static_cast<double>(network.ApproxStateBytes()) / 1024.0;

    for (std::size_t alpha : alphas) {
      const ModeTimes t = TimeProbes(network, planner, events, alpha, reps);
      const double speedup =
          t.overlay_us > 0.0 ? t.legacy_us / t.overlay_us : 0.0;
      if (flows == flow_counts.back() && alpha == alphas.back()) {
        final_speedup = speedup;
      }
      table.Row()
          .Cell(flows)
          .Cell(alpha)
          .Cell(copy_kib, 0)
          .Cell(t.legacy_us, 1)
          .Cell(t.overlay_us, 1)
          .Cell(speedup, 1)
          .Cell(t.parallel_us, 1)
          .Cell(t.cached_us, 4);

      if (!first_row) json << ",\n";
      first_row = false;
      json << "    {\"background_flows\": " << flows
           << ", \"alpha\": " << alpha << ", \"copy_bytes\": "
           << network.ApproxStateBytes()
           << ", \"legacy_us_per_probe\": " << FormatDouble(t.legacy_us, 3)
           << ", \"overlay_us_per_probe\": " << FormatDouble(t.overlay_us, 3)
           << ", \"parallel_us_per_probe\": "
           << FormatDouble(t.parallel_us, 3)
           << ", \"cached_us_per_probe\": " << FormatDouble(t.cached_us, 5)
           << ", \"speedup_vs_legacy\": " << FormatDouble(speedup, 2) << "}";
    }
  }

  json << "\n  ],\n  \"acceptance\": {\"max_flows\": " << flow_counts.back()
       << ", \"speedup_vs_legacy\": " << FormatDouble(final_speedup, 2)
       << ", \"meets_5x\": " << (final_speedup >= 5.0 ? "true" : "false")
       << "}\n}\n";
  json.close();
  std::printf("json written: %s\n", json_path.c_str());

  table.Print();
  if (!txt_path.empty()) {
    std::ofstream txt(txt_path);
    txt << table.Render();
    std::printf("txt written: %s\n", txt_path.c_str());
  }
  bench::MaybeWriteCsv(table, csv_path);
  bench::PrintFooter(
      "legacy grows linearly with the background-flow count (deep copy is "
      "O(total state)); overlay stays flat (one O(links) residual-row "
      "copy plus the state touched), so the "
      "speedup widens with scale and clears 5x at the largest point; "
      "parallel divides the overlay time by ~alpha workers; cached hits "
      "are O(1) map lookups, orders of magnitude below either");
  if (final_speedup < 5.0 && !quick) {
    std::fprintf(stderr, "ACCEPTANCE FAILED: speedup %.2f < 5.0\n",
                 final_speedup);
    return 1;
  }
  return 0;
}
