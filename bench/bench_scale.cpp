// Scale tier: k=16 Fat-Tree with 50k+ background flows driven through
// fifo/lmtf/p-lmtf end to end — the regime where mutable-state layout, not
// probe cost, decides throughput (ROADMAP "production scale"; cf. the
// ever-larger instances of Cerny et al. and Amiri et al.).
//
// Measures per scheduler: end-to-end simulation wall time and events/sec
// (with background churn and the runtime auditor on, so departures,
// replacements, and full-state audits all hit the hot state), plus the peak
// mutable-state bytes of the loaded network:
//   * approx_state_bytes      — Network::ApproxStateBytes() of this build,
//   * legacy_layout_bytes_est — an analytic estimate of the SAME logical
//     state under the legacy layout (unordered_map flow table + placements,
//     a deep topo::Path copy per flow, u64 link-flow entries), counting the
//     map node/bucket and heap-block overheads the legacy
//     ApproxStateBytes() omitted. Both builds compute both numbers, so the
//     old-vs-new bytes comparison is built in.
//
// Wall-time old-vs-new uses a pinned baseline run: the pre-change build
// wrote results/bench_scale_baseline.json; pass
// --baseline=results/bench_scale_baseline.json and the comparison (ratios +
// acceptance booleans: >=3x bytes reduction, >=2x speedup) lands in
// BENCH_scale.json. Workload generation is fully seeded, so both builds
// simulate identical logical states.
//
// The traffic matrix is sparse and skewed (a hot set of host pairs, most
// of them rack- or pod-local), as DC measurement studies report — which is
// also what makes path interning pay: flows share candidate paths.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "metrics/report.h"
#include "net/admission.h"
#include "net/network.h"
#include "sched/factory.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/path_provider.h"
#include "trace/generator.h"
#include "update/update_event.h"

using namespace nu;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A sparse, skewed traffic matrix: flows are drawn from a fixed hot set of
/// host pairs, weighted toward rack- and pod-local destinations. Shared by
/// initial injection and churn replacements so the pair universe stays
/// stable through the run.
class LocalityGenerator final : public trace::TrafficGenerator {
 public:
  LocalityGenerator(const topo::FatTree& ft, std::size_t hot_pairs, Rng rng)
      : rng_(rng) {
    pairs_.reserve(hot_pairs);
    const std::size_t hosts = ft.host_count();
    while (pairs_.size() < hot_pairs) {
      const NodeId src = ft.host(rng_.Index(hosts));
      // 40% rack-local, 30% pod-local, 30% anywhere: the locality mix DC
      // traces report, and three distinct path-universe shapes (1, (k/2),
      // and (k/2)^2 candidate paths).
      const double roll = rng_.Uniform01();
      NodeId dst = src;
      for (std::size_t guard = 0; dst == src && guard < 64; ++guard) {
        if (roll < 0.4) {
          dst = RandomHostSameEdge(ft, src);
        } else if (roll < 0.7) {
          dst = RandomHostSamePod(ft, src);
        } else {
          dst = ft.host(rng_.Index(hosts));
        }
      }
      if (dst != src) pairs_.push_back({src, dst});
    }
  }

  [[nodiscard]] trace::FlowSpec Next() override {
    // Skew toward the front of the hot set (sum of two uniforms folds the
    // mass toward low indices, a cheap heavy-head approximation).
    const double u = rng_.Uniform01() * rng_.Uniform01();
    const auto idx = static_cast<std::size_t>(
        u * static_cast<double>(pairs_.size()));
    const auto& [src, dst] = pairs_[std::min(idx, pairs_.size() - 1)];
    trace::FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.demand = 0.5 + rng_.Uniform(0.0, 1.5);
    spec.duration = 5.0 + rng_.Uniform(0.0, 10.0);
    return spec;
  }

  [[nodiscard]] const char* name() const override { return "locality"; }

 private:
  [[nodiscard]] NodeId RandomHostSameEdge(const topo::FatTree& ft,
                                          NodeId src) {
    const std::size_t base =
        ft.HostIndex(src) / (ft.config().k / 2) * (ft.config().k / 2);
    return ft.host(base + rng_.Index(ft.config().k / 2));
  }
  [[nodiscard]] NodeId RandomHostSamePod(const topo::FatTree& ft, NodeId src) {
    const std::size_t per_pod =
        (ft.config().k / 2) * (ft.config().k / 2);
    const std::size_t base = ft.HostIndex(src) / per_pod * per_pod;
    return ft.host(base + rng_.Index(per_pod));
  }

  Rng rng_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;
};

/// Fills `network` with `count` background flows from `gen`.
std::size_t InjectFlows(net::Network& network,
                        const topo::PathProvider& provider,
                        trace::TrafficGenerator& gen, std::size_t count) {
  std::size_t placed = 0;
  std::size_t attempts = 0;
  while (placed < count && attempts < count * 20) {
    ++attempts;
    trace::FlowSpec spec = gen.Next();
    if (const auto path =
            net::FindFeasiblePath(network, provider, spec.src, spec.dst,
                                  spec.demand, net::PathSelection::kFirstFit)) {
      flow::Flow f;
      f.src = spec.src;
      f.dst = spec.dst;
      f.demand = spec.demand;
      f.duration = spec.duration;
      f.origin = flow::FlowOrigin::kBackground;
      network.Place(f, *path);
      ++placed;
    }
  }
  return placed;
}

/// Size of a glibc-malloc heap block serving an `n`-byte request: 8-byte
/// chunk header, 16-byte granularity, 32-byte minimum chunk.
std::size_t MallocBlock(std::size_t n) {
  return std::max<std::size_t>(32, (n + 8 + 15) & ~std::size_t{15});
}

struct StateStats {
  std::size_t placed_flows = 0;
  std::size_t link_entries = 0;
  std::size_t unique_paths = 0;
  std::size_t approx_state_bytes = 0;
  std::size_t legacy_layout_bytes_est = 0;
};

/// Analytic byte cost of the legacy hot-state layout holding this network's
/// logical state — what a build before the dense-store/interning change
/// would allocate. Counted honestly: unordered_map heap nodes (key + value
/// + chain pointer per element) and bucket arrays, a deep topo::Path per
/// placement (two heap vectors), u64 link-flow entries.
StateStats MeasureState(const net::Network& network) {
  StateStats s;
  s.approx_state_bytes = network.ApproxStateBytes();
  const topo::Graph& graph = network.graph();
  std::size_t bytes = graph.link_count() * sizeof(Mbps) +  // residual_
                      graph.link_count() + graph.node_count();  // up flags
  bytes += graph.link_count() * sizeof(std::vector<FlowId>);  // link_flows_
  std::set<std::pair<std::vector<NodeId>, std::vector<LinkId>>> uniq;
  for (const FlowId id : network.PlacedFlows()) {
    ++s.placed_flows;
    const topo::Path& p = network.PathOf(id);
    s.link_entries += p.links.size();
    uniq.insert({p.nodes, p.links});
    // placements_ map node: u64 key + topo::Path (two inline vectors) +
    // chain pointer; then the two heap blocks the vectors own.
    bytes += MallocBlock(sizeof(std::uint64_t) + sizeof(topo::Path) +
                         sizeof(void*));
    bytes += MallocBlock(p.nodes.size() * sizeof(NodeId));
    bytes += MallocBlock(p.links.size() * sizeof(LinkId));
    // FlowTable map node: u64 key + Flow + chain pointer.
    bytes += MallocBlock(sizeof(std::uint64_t) + sizeof(flow::Flow) +
                         sizeof(void*));
  }
  s.unique_paths = uniq.size();
  bytes += s.link_entries * sizeof(FlowId);  // u64 per link-flow entry
  // Two unordered_maps' bucket arrays (~1 pointer per element at load
  // factor 1 — a deliberately conservative floor).
  bytes += 2 * s.placed_flows * sizeof(void*);
  s.legacy_layout_bytes_est = bytes;
  return s;
}

std::vector<update::UpdateEvent> MakeEvents(trace::TrafficGenerator& gen,
                                            std::size_t count,
                                            std::size_t flows_per_event) {
  std::vector<update::UpdateEvent> events;
  events.reserve(count);
  for (std::uint64_t e = 0; e < count; ++e) {
    std::vector<flow::Flow> flows;
    flows.reserve(flows_per_event);
    for (std::size_t i = 0; i < flows_per_event; ++i) {
      const trace::FlowSpec spec = gen.Next();
      flow::Flow f;
      f.src = spec.src;
      f.dst = spec.dst;
      f.demand = spec.demand;
      f.duration = spec.duration;
      flows.push_back(f);
    }
    events.push_back(update::UpdateEvent(EventId{e}, 0.0, std::move(flows)));
  }
  return events;
}

struct RunRow {
  std::string scheduler;
  std::size_t events = 0;
  std::size_t rounds = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

/// Worker-thread counts the sharded tier measures, and the unsharded/
/// sharded pairs per point (single runs of one config vary by about ±30%).
constexpr std::size_t kShardThreadCounts[] = {1, 2, 4};
constexpr std::size_t kShardPairs = 8;

/// One measured thread-count point of the sharded tier.
struct ShardThreadRow {
  std::size_t threads = 0;
  /// Median wall seconds of the unsharded and the sharded side.
  double unsharded_wall_seconds = 0.0;
  double wall_seconds = 0.0;
  /// Median fan-out (parallel-region) wall seconds.
  double fanout_wall_seconds = 0.0;
  double events_per_sec = 0.0;
  /// Unsharded median wall / sharded median wall.
  double speedup = 0.0;
  /// Pairs in which the sharded run was faster.
  std::size_t sharded_wins = 0;
};

/// One scheduler's sharded-tier measurement: at each thread count,
/// kShardPairs interleaved unsharded/sharded pairs.
struct ShardRow {
  std::string scheduler;
  std::size_t events = 0;
  std::size_t rounds = 0;
  std::uint64_t probe_fanouts = 0;
  std::vector<ShardThreadRow> sweep;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool HasFlag(int argc, char** argv, const char* flag) {
  const std::string needle = std::string("--") + flag;
  for (int i = 1; i < argc; ++i) {
    if (needle == argv[i]) return true;
  }
  return false;
}

/// Pulls `"key": <number>` out of a JSON text — enough to read the pinned
/// baseline this bench itself wrote.
std::optional<double> JsonNumber(const std::string& text,
                                 const std::string& key, std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "quick");
  const std::size_t k = bench::ArgOr(argc, argv, "k", quick ? 8 : 16);
  const std::size_t flow_target =
      bench::ArgOr(argc, argv, "flows", quick ? 5'000 : 50'000);
  const std::size_t event_count =
      bench::ArgOr(argc, argv, "events", quick ? 40 : 200);
  const std::string json_path =
      bench::ArgOrStr(argc, argv, "json", "BENCH_scale.json");
  const std::string csv_path = bench::ArgOrStr(argc, argv, "csv", "");
  const std::string txt_path = bench::ArgOrStr(argc, argv, "txt", "");
  const std::string baseline_path = bench::ArgOrStr(argc, argv, "baseline", "");

  bench::PrintHeader(
      "Scale tier: end-to-end simulation at k=16 / 50k background flows",
      quick ? "quick sweep (CI): k=8, 5k flows" :
              "k=16 Fat-Tree, 50k background flows, churn + auditor on");

  // Capacity sized so the hot-pair host uplinks absorb the skewed matrix.
  topo::FatTree ft(topo::FatTreeConfig{
      .k = k, .link_capacity = quick ? 2000.0 : 4000.0});
  topo::FatTreePathProvider provider(ft);
  const std::size_t hot_pairs = flow_target / 25;

  net::Network network(ft.graph());
  LocalityGenerator inject_gen(ft, hot_pairs, Rng(777));
  auto inject_start = Clock::now();
  const std::size_t placed =
      InjectFlows(network, provider, inject_gen, flow_target);
  const double inject_seconds = SecondsSince(inject_start);
  std::printf("injected %zu/%zu flows in %.2fs (%zu hot pairs)\n", placed,
              flow_target, inject_seconds, hot_pairs);

  // Bulk injection grows vectors geometrically; drop the slack so the
  // measured bytes reflect steady-state storage, not growth headroom.
  network.ShrinkToFit();
  const StateStats state = MeasureState(network);
  const double builtin_bytes_reduction =
      state.approx_state_bytes > 0
          ? static_cast<double>(state.legacy_layout_bytes_est) /
                static_cast<double>(state.approx_state_bytes)
          : 0.0;
  std::printf(
      "state: %.1f MiB (this build), %.1f MiB legacy-layout estimate, "
      "%zu unique paths, %zu link entries\n",
      static_cast<double>(state.approx_state_bytes) / (1024.0 * 1024.0),
      static_cast<double>(state.legacy_layout_bytes_est) / (1024.0 * 1024.0),
      state.unique_paths, state.link_entries);

  // End-to-end runs: churn on (departures draw replacements from the same
  // hot-pair matrix) and the invariant auditor on a coarse cadence, so
  // every subsystem that scans the hot state contributes.
  LocalityGenerator event_gen(ft, hot_pairs, Rng(4242));
  const auto events = MakeEvents(event_gen, event_count, 5);

  sim::SimConfig config;
  config.seed = 20260805;
  config.guard.auditor.enabled = true;
  config.guard.auditor.cadence = quick ? 1000 : 500;
  config.churn.enabled = true;
  config.churn.placement.max_flows = flow_target * 2;

  AsciiTable table({"scheduler", "events", "rounds", "wall s", "events/s"});
  std::vector<RunRow> rows;
  double total_wall = 0.0;
  for (const sched::SchedulerKind kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kLmtf,
        sched::SchedulerKind::kPlmtf}) {
    sim::Simulator simulator(network, provider, config);
    simulator.SetChurnFactory([&ft, hot_pairs](std::uint64_t seed) {
      return std::make_unique<LocalityGenerator>(ft, hot_pairs, Rng(seed));
    });
    const auto scheduler = sched::MakeScheduler(kind);
    const auto start = Clock::now();
    const sim::SimResult result = simulator.Run(*scheduler, events);
    RunRow row;
    row.scheduler = sched::ToString(kind);
    row.events = result.report.event_count;
    row.rounds = result.rounds;
    row.wall_seconds = SecondsSince(start);
    row.events_per_sec =
        row.wall_seconds > 0.0
            ? static_cast<double>(row.events) / row.wall_seconds
            : 0.0;
    total_wall += row.wall_seconds;
    table.Row()
        .Cell(row.scheduler)
        .Cell(row.events)
        .Cell(row.rounds)
        .Cell(row.wall_seconds, 2)
        .Cell(row.events_per_sec, 1);
    rows.push_back(row);
    std::printf("%-7s %zu events, %zu rounds, %.2fs (%.1f events/s)\n",
                row.scheduler.c_str(), row.events, row.rounds,
                row.wall_seconds, row.events_per_sec);
  }

  // --- Pod-sharded tier: k=32 / 500k flows, thread-count sweep ---
  //
  // A separate, bigger fabric: one shard per pod, churn OFF (replacement
  // draws are coordinator work and would dilute the parallel fraction this
  // tier exists to measure), auditor ON at a dense cadence (probe planning
  // is the fan-out work; audit passes run on the coordinator). Each
  // scheduler runs kShardPairs unsharded/sharded pairs at 1, 2 and 4
  // worker threads. The side that runs first alternates from pair to pair,
  // so host drift lands on both sides alike; every point reports both
  // medians and how many pairs the sharded run won.
  const std::size_t shard_k =
      bench::ArgOr(argc, argv, "shard-k", quick ? 8 : 32);
  const std::size_t shard_flows =
      bench::ArgOr(argc, argv, "shard-flows", quick ? 5'000 : 500'000);
  const std::size_t shard_events =
      bench::ArgOr(argc, argv, "shard-events", quick ? 20 : 60);

  topo::FatTree shard_ft(topo::FatTreeConfig{
      .k = shard_k, .link_capacity = quick ? 2000.0 : 8000.0});
  topo::FatTreePathProvider shard_provider(shard_ft);
  const std::size_t shard_hot_pairs = shard_flows / 25;
  net::Network shard_network(shard_ft.graph());
  LocalityGenerator shard_inject(shard_ft, shard_hot_pairs, Rng(1337));
  const auto shard_inject_start = Clock::now();
  const std::size_t shard_placed =
      InjectFlows(shard_network, shard_provider, shard_inject, shard_flows);
  shard_network.ShrinkToFit();
  std::printf("\nshard tier: k=%zu, injected %zu/%zu flows in %.2fs, "
              "%zu shards\n",
              shard_k, shard_placed, shard_flows,
              SecondsSince(shard_inject_start), shard_ft.pod_count());

  LocalityGenerator shard_event_gen(shard_ft, shard_hot_pairs, Rng(2424));
  const auto shard_run_events =
      MakeEvents(shard_event_gen, shard_events, 5);

  sim::SimConfig shard_config;
  shard_config.seed = 20260809;
  shard_config.guard.auditor.enabled = true;
  shard_config.guard.auditor.cadence = quick ? 4 : 2;
  shard_config.churn.enabled = false;

  std::vector<ShardRow> shard_rows;
  for (const sched::SchedulerKind kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kLmtf,
        sched::SchedulerKind::kPlmtf}) {
    ShardRow srow;
    srow.scheduler = sched::ToString(kind);
    // Wall seconds (and the result) of one simulation under `run_config`.
    auto timed_run = [&](const sim::SimConfig& run_config) {
      sim::Simulator simulator(shard_network, shard_provider, run_config);
      const auto scheduler = sched::MakeScheduler(kind);
      const auto start = Clock::now();
      sim::SimResult result = simulator.Run(*scheduler, shard_run_events);
      return std::make_pair(SecondsSince(start), std::move(result));
    };
    for (const std::size_t threads : kShardThreadCounts) {
      sim::SimConfig sharded = shard_config;
      sharded.shards = shard_ft.pod_count();
      sharded.shard_threads = threads;
      ShardThreadRow t;
      t.threads = threads;
      std::vector<double> unsharded_walls;
      std::vector<double> walls;
      std::vector<double> fanouts;
      for (std::size_t pair = 0; pair < kShardPairs; ++pair) {
        double unsharded_wall = 0.0;
        double wall = 0.0;
        for (const bool run_sharded : {pair % 2 == 1, pair % 2 == 0}) {
          auto [seconds, result] =
              timed_run(run_sharded ? sharded : shard_config);
          if (run_sharded) {
            wall = seconds;
            fanouts.push_back(result.shard_stats.fanout_wall_seconds);
            srow.probe_fanouts = result.shard_stats.probe_fanouts;
          } else {
            unsharded_wall = seconds;
            srow.events = result.report.event_count;
            srow.rounds = result.rounds;
          }
        }
        unsharded_walls.push_back(unsharded_wall);
        walls.push_back(wall);
        if (wall < unsharded_wall) ++t.sharded_wins;
      }
      t.unsharded_wall_seconds = Median(unsharded_walls);
      t.wall_seconds = Median(walls);
      t.fanout_wall_seconds = Median(fanouts);
      t.events_per_sec =
          t.wall_seconds > 0.0
              ? static_cast<double>(srow.events) / t.wall_seconds
              : 0.0;
      t.speedup = t.wall_seconds > 0.0
                      ? t.unsharded_wall_seconds / t.wall_seconds
                      : 0.0;
      srow.sweep.push_back(t);
      std::printf("%-7s %zu threads: median %.3fs (unsharded %.3fs, "
                  "fan-out %.3fs) -> %.2fx, sharded faster in %zu of %zu "
                  "pairs\n",
                  srow.scheduler.c_str(), threads, t.wall_seconds,
                  t.unsharded_wall_seconds, t.fanout_wall_seconds, t.speedup,
                  t.sharded_wins, kShardPairs);
    }
    shard_rows.push_back(std::move(srow));
  }

  AsciiTable shard_table({"scheduler", "threads", "unsharded s",
                          "sharded s", "fan-out s", "speedup",
                          "sharded faster"});
  for (const ShardRow& srow : shard_rows) {
    for (const ShardThreadRow& t : srow.sweep) {
      shard_table.Row()
          .Cell(srow.scheduler)
          .Cell(t.threads)
          .Cell(t.unsharded_wall_seconds, 3)
          .Cell(t.wall_seconds, 3)
          .Cell(t.fanout_wall_seconds, 3)
          .Cell(t.speedup, 2)
          .Cell(std::to_string(t.sharded_wins) + "/" +
                std::to_string(kShardPairs));
    }
  }

  // Pinned-baseline comparison (wall time cannot be measured across two
  // layouts inside one binary; bytes can — and are, above).
  double baseline_total_wall = 0.0;
  double baseline_approx_bytes = 0.0;
  bool have_baseline = false;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string text = buf.str();
      const auto wall = JsonNumber(text, "total_wall_seconds");
      const auto bytes = JsonNumber(text, "approx_state_bytes");
      if (wall && bytes) {
        baseline_total_wall = *wall;
        baseline_approx_bytes = *bytes;
        have_baseline = true;
      }
    }
    if (!have_baseline) {
      std::fprintf(stderr, "cannot read baseline: %s\n",
                   baseline_path.c_str());
    }
  }

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"scale\",\n  \"quick\": "
       << (quick ? "true" : "false") << ",\n  \"k\": " << k
       << ",\n  \"background_flows\": " << placed
       << ",\n  \"hot_pairs\": " << hot_pairs
       << ",\n  \"inject_seconds\": " << FormatDouble(inject_seconds, 2)
       << ",\n  \"state\": {\"approx_state_bytes\": "
       << state.approx_state_bytes << ", \"legacy_layout_bytes_est\": "
       << state.legacy_layout_bytes_est << ", \"unique_paths\": "
       << state.unique_paths << ", \"link_entries\": " << state.link_entries
       << ", \"placed_flows\": " << state.placed_flows
       << ", \"builtin_bytes_reduction\": "
       << FormatDouble(builtin_bytes_reduction, 2) << "},\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& row = rows[i];
    json << "    {\"scheduler\": \"" << row.scheduler
         << "\", \"events\": " << row.events << ", \"rounds\": " << row.rounds
         << ", \"wall_seconds\": " << FormatDouble(row.wall_seconds, 3)
         << ", \"events_per_sec\": " << FormatDouble(row.events_per_sec, 1)
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"total_wall_seconds\": " << FormatDouble(total_wall, 3);
  // Sharded tier: measured medians; host_cores records the machine.
  json << ",\n  \"shards\": {\n    \"host_cores\": "
       << std::thread::hardware_concurrency()
       << ",\n    \"note\": \"median measured wall seconds of "
       << kShardPairs
       << " interleaved unsharded/sharded pairs per point, the side that "
          "runs first alternating; speedup = unsharded median / sharded "
          "median; sharded_faster_pairs = pairs the sharded run won\""
       << ",\n    \"k\": " << shard_k
       << ",\n    \"background_flows\": " << shard_placed
       << ",\n    \"shard_count\": " << shard_ft.pod_count()
       << ",\n    \"events\": " << shard_events
       << ",\n    \"rows\": [\n";
  for (std::size_t i = 0; i < shard_rows.size(); ++i) {
    const ShardRow& srow = shard_rows[i];
    json << "      {\"scheduler\": \"" << srow.scheduler
         << "\", \"events\": " << srow.events
         << ", \"rounds\": " << srow.rounds
         << ", \"probe_fanouts\": " << srow.probe_fanouts
         << ",\n       \"threads\": [";
    for (std::size_t t = 0; t < srow.sweep.size(); ++t) {
      const ShardThreadRow& tr = srow.sweep[t];
      json << (t > 0 ? ",\n        " : "") << "{\"threads\": " << tr.threads
           << ", \"unsharded_wall_seconds\": "
           << FormatDouble(tr.unsharded_wall_seconds, 3)
           << ", \"wall_seconds\": " << FormatDouble(tr.wall_seconds, 3)
           << ", \"fanout_wall_seconds\": "
           << FormatDouble(tr.fanout_wall_seconds, 3)
           << ", \"events_per_sec\": " << FormatDouble(tr.events_per_sec, 1)
           << ", \"speedup\": " << FormatDouble(tr.speedup, 2)
           << ", \"sharded_faster_pairs\": " << tr.sharded_wins << "}";
    }
    json << "]}" << (i + 1 < shard_rows.size() ? "," : "") << "\n";
  }
  json << "    ]\n  }";
  if (have_baseline) {
    const double speedup =
        total_wall > 0.0 ? baseline_total_wall / total_wall : 0.0;
    json << ",\n  \"comparison\": {\"baseline\": \"" << baseline_path
         << "\", \"baseline_total_wall_seconds\": "
         << FormatDouble(baseline_total_wall, 3)
         << ", \"baseline_approx_state_bytes\": "
         << FormatDouble(baseline_approx_bytes, 0)
         << ", \"speedup_end_to_end\": " << FormatDouble(speedup, 2)
         << ", \"bytes_reduction\": "
         << FormatDouble(builtin_bytes_reduction, 2)
         << ", \"meets_2x_speedup\": " << (speedup >= 2.0 ? "true" : "false")
         << ", \"meets_3x_bytes\": "
         << (builtin_bytes_reduction >= 3.0 ? "true" : "false") << "}";
    std::printf("vs baseline: %.2fx end-to-end speedup, %.2fx bytes "
                "reduction\n", speedup, builtin_bytes_reduction);
  }
  json << "\n}\n";
  json.close();
  std::printf("json written: %s\n", json_path.c_str());

  table.Print();
  std::printf("sharded tier (median wall of %zu interleaved pairs, %zu "
              "shards):\n",
              kShardPairs, shard_ft.pod_count());
  shard_table.Print();
  if (!txt_path.empty()) {
    std::ofstream txt(txt_path);
    txt << table.Render() << "\n" << shard_table.Render();
    std::printf("txt written: %s\n", txt_path.c_str());
  }
  bench::MaybeWriteCsv(table, csv_path);
  if (!csv_path.empty()) {
    // The sharded tier's machine-readable twin rides next to the main CSV.
    const std::size_t dot = csv_path.rfind('.');
    const std::string shards_csv =
        dot == std::string::npos ? csv_path + "_shards"
                                 : csv_path.substr(0, dot) + "_shards" +
                                       csv_path.substr(dot);
    bench::MaybeWriteCsv(shard_table, shards_csv);
  }
  bench::PrintFooter(
      "events/sec is bounded by hot-state traversal (audits, departures, "
      "link-flow scans): the live-sized flow store and interned paths "
      "cut both the bytes a scan touches and the per-read hashing, so the "
      "post-change build clears 2x end-to-end and 3x state bytes");
  return 0;
}
