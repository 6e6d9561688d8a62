// Repo benchmark: runs one workload at one seed for a wall-clock
// budget and prints its metrics, ending with one JSON line.
//
//   perfbench --workload scale|paper|robust --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// --trace 0 reports the end-to-end metrics. Only the scheduler is wrapped,
// with one clock read per round.
// --trace 1 alternates untraced and traced repetitions. It reports the
// per-layer metrics from the traced ones plus the tracing overhead, and
// writes the last traced repetition's spans to DIR/traces/ as Chrome
// trace-event JSON.
//
// Every run checks its output: all repetitions give the same CRC-32 of the
// records CSV, traced equals untraced, `scale` equals its pod-sharded twin,
// `paper` equals exp::RunScheduler without wrappers, no audit pass finds a
// violation, and no simulation exceeds a wall cap.
//
// Only one instance of the panel is resident at a time: each is built just
// before its run and freed after it, so peak RSS reflects one simulation.
// Those builds are the set-up samples, so they spread over the whole run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "exp/runner.h"
#include "guard/auditor.h"
#include "metrics/export.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace nu;

/// Timed builds of an instance before each of its untraced runs.
constexpr std::size_t kBuildsPerRun = 3;
constexpr std::size_t kAuditPasses = 5;
/// Timed runs of `scale`'s sharded twin in the traced run.
constexpr std::size_t kTwinRuns = 3;
/// A single simulation slower than this fails the run.
constexpr double kRunCapSeconds = 60.0;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::uint32_t RecordsDigest(const sim::SimResult& result) {
  std::ostringstream csv;
  metrics::WriteRecordsCsv(csv, result.records);
  return Crc32(csv.str());
}

std::string Hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// A checkpoint directory that exists for one run only.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

struct Rep {
  double wall_s = 0.0;
  std::vector<double> round_s;
  std::uint32_t digest = 0;
  std::size_t events = 0;
  std::size_t failed = 0;
  sim::SimResult result;
  LayerTotals layers;  // traced runs only
};

/// The instances a run simulates: one workload at seeds derived from the
/// run's seed.
struct Panel {
  WorkloadKind kind = WorkloadKind::kScale;
  std::vector<std::uint64_t> seeds;

  [[nodiscard]] std::unique_ptr<Instance> Build(std::size_t i) const {
    return BuildInstance(kind, seeds[i]);
  }
};

/// One run of every instance of the panel, in panel order.
struct Pass {
  std::vector<Rep> reps;

  [[nodiscard]] double Wall() const {
    double wall = 0.0;
    for (const Rep& rep : reps) wall += rep.wall_s;
    return wall;
  }
  [[nodiscard]] double EventsPerSecond() const {
    std::size_t events = 0;
    for (const Rep& rep : reps) events += rep.events;
    return static_cast<double>(events) / Wall();
  }
};

struct Options {
  WorkloadKind workload = WorkloadKind::kScale;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir = ".";
};

/// Runs one simulation of `in` under `config`. With a recorder, the path
/// provider and churn generator are wrapped too and the run's spans land in
/// `spans`.
Rep RunOnce(const Instance& in, sim::SimConfig config, SpanRecorder* recorder,
            const fs::path& workdir, std::vector<Span>* spans = nullptr) {
  static std::size_t run_counter = 0;
  std::optional<ScratchDir> ckpt;
  if (in.checkpointed) {
    ckpt.emplace(workdir / "tmp" /
                 ("ckpt-" + std::to_string(::getpid()) + "-" +
                  std::to_string(run_counter++)));
    config.checkpoint.dir = ckpt->path().string();
  }
  std::optional<TracedPathProvider> traced_paths;
  if (recorder != nullptr) traced_paths.emplace(*in.paths, *recorder);
  const topo::PathProvider& paths =
      recorder != nullptr
          ? static_cast<const topo::PathProvider&>(*traced_paths)
          : *in.paths;
  sim::Simulator simulator(*in.network, paths, config);
  if (in.churn && recorder != nullptr) {
    simulator.SetChurnFactory([&in, recorder](std::uint64_t seed) {
      return std::make_unique<TracedGenerator>(in.churn(seed), *recorder);
    });
  } else if (in.churn) {
    simulator.SetChurnFactory(in.churn);
  }
  const std::unique_ptr<sched::Scheduler> scheduler = in.make_scheduler();
  MeasuredScheduler measured(*scheduler, recorder);

  Rep rep;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan run_span(recorder, Layer::kRun);
    rep.result = simulator.Run(measured, in.events);
  }
  const Clock::time_point end = Clock::now();
  measured.Finish(end);
  rep.wall_s = SecondsBetween(start, end);
  rep.round_s = measured.round_seconds();
  rep.digest = RecordsDigest(rep.result);
  rep.events = in.events.size();
  for (const metrics::EventRecord& r : rep.result.records) {
    if (r.status != metrics::TerminalStatus::kCompleted) ++rep.failed;
  }
  if (recorder != nullptr) {
    std::vector<Span> all = recorder->Collect();
    rep.layers = Summarize(all);
    if (spans != nullptr) *spans = std::move(all);
  }
  return rep;
}

/// Runs every instance of the panel once. Before its run, an instance is
/// built `builds` times, each build freed before the next; with `build_s`,
/// each build's wall time is appended to (*build_s)[instance].
Pass RunPass(const Panel& panel, bool traced, std::size_t builds,
             const fs::path& workdir,
             std::vector<std::vector<double>>* build_s = nullptr,
             std::vector<Span>* last_spans = nullptr) {
  Pass pass;
  for (std::size_t i = 0; i < panel.seeds.size(); ++i) {
    std::unique_ptr<Instance> in;
    for (std::size_t b = 0; b < builds; ++b) {
      in.reset();
      const Clock::time_point start = Clock::now();
      in = panel.Build(i);
      if (build_s != nullptr) {
        (*build_s)[i].push_back(SecondsBetween(start, Clock::now()));
      }
    }
    std::optional<SpanRecorder> recorder;
    if (traced) recorder.emplace();
    pass.reps.push_back(RunOnce(*in, in->sim, traced ? &*recorder : nullptr,
                                workdir, last_spans));
  }
  return pass;
}

/// Runs that instance 0's measured runs must reproduce: its pod-sharded twin
/// (`scale`) or exp::RunScheduler without wrappers (`paper`). `robust` has
/// none.
struct Reference {
  std::string label;
  std::vector<std::uint32_t> digests;
  /// The twin's runs (`scale` only).
  std::vector<Rep> twins;
};

Reference RunReference(const Panel& panel, std::size_t twin_runs,
                       const fs::path& workdir) {
  Reference ref;
  const std::unique_ptr<Instance> in = panel.Build(0);
  if (in->sharded) {
    ref.label = "its pod-sharded twin";
    for (std::size_t i = 0; i < twin_runs; ++i) {
      ref.twins.push_back(RunOnce(*in, *in->sharded, nullptr, workdir));
      ref.digests.push_back(ref.twins.back().digest);
    }
  } else if (panel.kind == WorkloadKind::kPaper) {
    ref.label = "exp::RunScheduler without wrappers";
    ref.digests.push_back(RecordsDigest(
        exp::RunScheduler(*in->workload, sched::SchedulerKind::kPlmtf)));
  }
  return ref;
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// False when the workload does not run the layer the metric measures.
  bool exercised = true;
};

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

void CheckPass(const Pass& pass, const std::vector<std::uint32_t>& expected,
               const char* label, Checks& checks) {
  for (std::size_t i = 0; i < pass.reps.size(); ++i) {
    const Rep& rep = pass.reps[i];
    const std::string what = std::string(label) + " of instance " +
                             std::to_string(i);
    checks.Expect(rep.digest == expected[i], what + ": digest " +
                                                 Hex(rep.digest) + " != " +
                                                 Hex(expected[i]));
    checks.Expect(rep.result.violations.empty() &&
                      rep.result.report.audit_violations == 0,
                  what + ": audit violations");
    checks.Expect(rep.wall_s < kRunCapSeconds, what + ": over the wall cap");
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const std::vector<Pass>& passes,
                                     double setup_s, double peak_rss_mib,
                                     Checks& checks) {
  // Throughput: the panel's events over the sum of each instance's median
  // wall time across passes.
  double events = 0.0;
  double wall = 0.0;
  for (std::size_t i = 0; i < passes.front().reps.size(); ++i) {
    std::vector<double> walls;
    for (const Pass& pass : passes) walls.push_back(pass.reps[i].wall_s);
    events += static_cast<double>(passes.front().reps[i].events);
    wall += Median(walls);
  }
  std::vector<double> rounds_ms;
  for (const Pass& pass : passes) {
    for (const Rep& rep : pass.reps) {
      for (double s : rep.round_s) rounds_ms.push_back(s * 1e3);
    }
  }
  // ECTs are deterministic: pooled over the panel's completed events.
  std::vector<double> ects;
  for (const Rep& rep : passes.front().reps) {
    for (const metrics::EventRecord& r : rep.result.records) {
      if (r.status == metrics::TerminalStatus::kCompleted) {
        ects.push_back(r.Ect());
      }
    }
  }
  checks.Expect(!ects.empty(), "no event completed");
  double ect_sum = 0.0;
  for (double e : ects) ect_sum += e;
  return {
      {"events_per_s", events / wall, "events/s"},
      {"round_ms_p50", Quantile(rounds_ms, 0.5), "ms"},
      {"round_ms_p90", Quantile(rounds_ms, 0.9), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
      {"avg_ect_s",
       ects.empty() ? 0.0 : ect_sum / static_cast<double>(ects.size()),
       "virtual_s"},
      {"tail_ect_s", Quantile(ects, 0.99), "virtual_s"},
  };
}

/// Per-layer metrics of one traced pass: span totals and counters summed
/// over the panel's runs. `in` is any instance of the panel; only its
/// configuration is read.
std::vector<Metric> PassLayerMetrics(const Instance& in, const Pass& pass) {
  LayerTotals t;
  for (const Rep& rep : pass.reps) t += rep.layers;
  auto sum = [&pass](auto fn) {
    double v = 0.0;
    for (const Rep& rep : pass.reps) v += static_cast<double>(fn(rep.result));
    return v;
  };
  auto count = [](std::size_t n) { return static_cast<double>(n); };
  const sim::SimConfig& cfg = in.sim;
  const bool plmtf = t.Count(Layer::kCoFeasible) > 0;
  const bool guard_on = cfg.guard.auditor.enabled ||
                        cfg.guard.overload.enabled() ||
                        cfg.guard.deadline.enabled();
  const bool faults_on = cfg.faults.enabled();
  const bool recon_on = cfg.recon.enabled;
  const bool ckpt_on = in.checkpointed;
  const bool serve_on = cfg.serve.enabled;
  const bool churn_on = cfg.churn.enabled;

  const double run_ms = t.Total(Layer::kRun);
  const double update_self_ms = t.Self(Layer::kProbeCost) +
                                t.Self(Layer::kProbeCosts) +
                                t.Self(Layer::kCoFeasible);
  const double hits = sum([](const sim::SimResult& r) {
    return r.report.probe_cache_hits;
  });
  const double lookups = hits + sum([](const sim::SimResult& r) {
                           return r.report.probe_cache_misses;
                         });
  const double cofeasible = count(t.Count(Layer::kCoFeasible));
  using R = const sim::SimResult&;
  return {
      {"sim.run_ms", run_ms, "ms"},
      {"sim.self_ms", t.Self(Layer::kRun), "ms"},
      {"sim.rounds", sum([](R r) { return r.rounds; }), "count"},
      {"sched.decide_calls", count(t.Count(Layer::kDecide)), "count"},
      {"sched.decide_ms", t.Total(Layer::kDecide), "ms"},
      {"sched.decide_self_ms", t.Self(Layer::kDecide), "ms"},
      {"update.probe_cost_calls", count(t.cost_probes), "count"},
      {"update.probe_cost_ms",
       t.Total(Layer::kProbeCost) + t.Total(Layer::kProbeCosts), "ms"},
      {"update.probe_self_ms", update_self_ms, "ms"},
      {"update.cofeasible_calls", cofeasible, "count", plmtf},
      {"update.cofeasible_ms", t.Total(Layer::kCoFeasible), "ms", plmtf},
      {"update.cofeasible_accept_ratio",
       cofeasible > 0 ? count(t.cofeasible_accepted) / cofeasible : 0.0,
       "ratio", plmtf},
      {"update.probe_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
       "ratio"},
      {"topo.paths_calls", count(t.Count(Layer::kPaths)), "count"},
      {"topo.paths_ms", t.Total(Layer::kPaths), "ms"},
      {"topo.paths_decide_calls", count(t.paths_in_decide), "count"},
      {"topo.paths_decide_ms", t.paths_in_decide_ms, "ms"},
      {"trace.churn_draws", count(t.Count(Layer::kChurnDraw)), "count",
       churn_on},
      {"trace.churn_draw_ms", t.Total(Layer::kChurnDraw), "ms", churn_on},
      {"guard.audits", sum([](R r) { return r.guard_stats.audits_run; }),
       "count", guard_on},
      {"guard.audit_violations", sum([](R r) { return r.violations.size(); }),
       "count", guard_on},
      {"guard.events_shed", sum([](R r) { return r.guard_stats.events_shed; }),
       "count", guard_on},
      {"guard.events_requeued",
       sum([](R r) { return r.guard_stats.events_requeued; }), "count",
       guard_on},
      {"guard.events_quarantined",
       sum([](R r) { return r.guard_stats.events_quarantined; }), "count",
       guard_on},
      {"fault.installs_retried",
       sum([](R r) { return r.fault_stats.installs_retried; }), "count",
       faults_on},
      {"fault.events_replanned",
       sum([](R r) { return r.fault_stats.events_replanned; }), "count",
       faults_on},
      {"fault.flows_killed",
       sum([](R r) { return r.fault_stats.flows_killed; }), "count",
       faults_on},
      {"fault.group_faults",
       sum([](R r) { return r.fault_stats.group_faults; }), "count",
       faults_on},
      {"recon.drift_checks", sum([](R r) { return r.report.drift_checks; }),
       "count", recon_on},
      {"recon.repairs", sum([](R r) { return r.report.drift_repairs; }),
       "count", recon_on},
      {"recon.repair_failures",
       sum([](R r) { return r.report.drift_repair_failures; }), "count",
       recon_on},
      {"recon.rules_abandoned",
       sum([](R r) { return r.report.drift_rules_abandoned; }), "count",
       recon_on},
      {"ckpt.snapshots", sum([](R r) { return r.report.ckpt_snapshots; }),
       "count", ckpt_on},
      {"ckpt.snapshot_bytes",
       sum([](R r) { return r.report.ckpt_snapshot_bytes; }), "bytes",
       ckpt_on},
      {"ckpt.snapshot_ms", sum([](R r) {
         return r.report.ckpt_snapshot_wall_seconds * 1e3;
       }),
       "ms", ckpt_on},
      {"ckpt.wal_records", sum([](R r) { return r.report.ckpt_wal_records; }),
       "count", ckpt_on},
      {"serve.admitted", sum([](R r) { return r.serve.admitted; }), "count",
       serve_on},
      {"serve.rejected", sum([](R r) {
         return r.serve.rejected_budget + r.serve.rejected_deadline +
                r.serve.rejected_priority;
       }),
       "count", serve_on},
      {"serve.brownout_transitions",
       sum([](R r) { return r.serve.transitions; }), "count", serve_on},
      {"share.sim_self_pct", 100.0 * t.Self(Layer::kRun) / run_ms, "%"},
      {"share.sched_self_pct", 100.0 * t.Self(Layer::kDecide) / run_ms, "%"},
      {"share.update_self_pct", 100.0 * update_self_ms / run_ms, "%"},
      {"share.topo_self_pct", 100.0 * t.Self(Layer::kPaths) / run_ms, "%"},
      {"share.trace_self_pct", 100.0 * t.Self(Layer::kChurnDraw) / run_ms,
       "%"},
  };
}

/// Median wall time of one guard::Auditor::Audit pass over a set-up
/// network.
double AuditPassMs(const Instance& in, Checks& checks) {
  guard::Auditor auditor(guard::AuditorConfig{.enabled = true});
  std::vector<double> ms;
  for (std::size_t i = 0; i < kAuditPasses; ++i) {
    const Clock::time_point start = Clock::now();
    const std::size_t found = auditor.Audit(*in.network, {});
    ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
    checks.Expect(found == 0, "audit of a set-up network found violations");
  }
  return Median(ms);
}

/// Per-layer metrics: each is the median over the traced passes, followed
/// by the set-up measurements and the tracing overhead.
std::vector<Metric> PerLayerMetrics(const Panel& panel,
                                    const std::vector<Pass>& traced,
                                    const std::vector<Pass>& untraced,
                                    const std::vector<Rep>& twins,
                                    Checks& checks) {
  // The set-up networks, one instance resident at a time.
  std::vector<double> audit_ms;
  std::vector<double> state_bytes;
  std::vector<double> placed;
  std::vector<Metric> metrics;
  for (std::size_t i = 0; i < panel.seeds.size(); ++i) {
    const std::unique_ptr<Instance> in = panel.Build(i);
    if (i == 0) {
      std::vector<std::vector<Metric>> per_pass;
      for (const Pass& pass : traced) {
        per_pass.push_back(PassLayerMetrics(*in, pass));
      }
      metrics = per_pass.front();
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        std::vector<double> v;
        for (const auto& pass : per_pass) v.push_back(pass[m].value);
        metrics[m].value = Median(v);
      }
    }
    audit_ms.push_back(AuditPassMs(*in, checks));
    state_bytes.push_back(static_cast<double>(in->network->ApproxStateBytes()));
    placed.push_back(static_cast<double>(in->network->placed_flow_count()));
  }
  metrics.push_back({"guard.audit_pass_ms", Median(audit_ms), "ms"});
  metrics.push_back({"net.state_bytes", Median(state_bytes), "bytes"});
  metrics.push_back({"net.placed_flows", Median(placed), "count"});
  // Shard fan-out and speed-up, from the sharded twin of instance 0 (scale
  // only): medians over the twin's runs and instance 0's untraced runs.
  std::vector<double> walls;
  for (const Pass& p : untraced) walls.push_back(p.reps.front().wall_s);
  std::vector<double> twin_walls;
  std::vector<double> fanout_ms;
  for (const Rep& twin : twins) {
    twin_walls.push_back(twin.wall_s);
    fanout_ms.push_back(twin.result.shard_stats.fanout_wall_seconds * 1e3);
  }
  const bool sharded = !twins.empty();
  const metrics::ShardStats* shard =
      sharded ? &twins.front().result.shard_stats : nullptr;
  metrics.push_back({"sim.shard_fanout_ms", Median(fanout_ms), "ms", sharded});
  metrics.push_back(
      {"sim.shard_fanouts",
       shard ? static_cast<double>(shard->probe_fanouts +
                                   shard->audit_fanouts + shard->recon_fanouts)
             : 0.0,
       "count", sharded});
  metrics.push_back({"sim.sharded_speedup",
                     sharded ? Median(walls) / Median(twin_walls) : 0.0,
                     "ratio", sharded});
  std::vector<double> eps_untraced;
  std::vector<double> eps_traced;
  for (const Pass& p : untraced) eps_untraced.push_back(p.EventsPerSecond());
  for (const Pass& p : traced) eps_traced.push_back(p.EventsPerSecond());
  metrics.push_back({"bench.trace_overhead_pct",
                     100.0 * (Median(eps_untraced) / Median(eps_traced) - 1.0),
                     "%"});
  return metrics;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %-9s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.exercised ? "" : "  (not exercised by this workload)");
  }
}

std::string ResultLine(const char* workload, const Options& opt,
                       std::uint32_t digest, const Checks& checks,
                       std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = "{\"workload\": \"" + std::string(workload) +
                     "\", \"seed\": " + std::to_string(opt.seed) +
                     ", \"digest\": \"" + Hex(digest) +
                     "\", \"correct\": " + (checks.ok() ? "true" : "false") +
                     ", \"checks_failed\": [";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    line += (i > 0 ? ", \"" : "\"") + JsonEscape(checks.failures()[i]) + "\"";
  }
  line += "], \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  return line + "}}";
}

int Run(const Options& opt) {
  const char* name = ToString(opt.workload);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  Checks checks;

  const Panel panel{opt.workload, PanelSeeds(opt.workload, opt.seed)};
  // Set-up samples: every build before an untraced run, per instance. The
  // traced run does not report set-up time and builds each instance once.
  const std::size_t builds = opt.trace ? 1 : kBuildsPerRun;
  std::vector<std::vector<double>> build_s(panel.seeds.size());

  // Passes run until --seconds have elapsed. Peak RSS is read after the
  // first one, before any reference run: later passes grow the shared path
  // registry a little, and their number depends on the host's speed.
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  std::vector<Span> last_spans;
  Reference reference;
  double peak_rss_mib = 0.0;
  const Clock::time_point begin = Clock::now();
  while (untraced.empty() ||
         SecondsBetween(begin, Clock::now()) < opt.seconds) {
    untraced.push_back(RunPass(panel, false, builds, opt.workdir, &build_s));
    if (untraced.size() == 1) {
      peak_rss_mib = PeakRssMib();
      reference = RunReference(panel, opt.trace ? kTwinRuns : 1, opt.workdir);
    }
    if (opt.trace) {
      traced.push_back(
          RunPass(panel, true, 1, opt.workdir, nullptr, &last_spans));
    }
  }

  // Every run of an instance must reproduce its first run's records.
  std::vector<std::uint32_t> expected;
  for (const Rep& rep : untraced.front().reps) expected.push_back(rep.digest);
  for (std::uint32_t d : reference.digests) {
    checks.Expect(d == expected.front(),
                  "instance 0 digest " + Hex(expected.front()) + " != " +
                      Hex(d) + " from " + reference.label);
  }
  for (const Rep& twin : reference.twins) {
    checks.Expect(twin.result.violations.empty(),
                  "the sharded twin had audit violations");
  }
  // Set-up time: the sum over the panel of each instance's median build.
  double setup_s = 0.0;
  std::printf("%-8s %20s %7s %7s %7s %12s %12s %9s\n", "instance", "seed",
              "events", "failed", "rounds", "median build", "median wall",
              "digest");
  for (std::size_t i = 0; i < panel.seeds.size(); ++i) {
    std::vector<double> walls;
    for (const Pass& pass : untraced) walls.push_back(pass.reps[i].wall_s);
    const Rep& rep = untraced.front().reps[i];
    setup_s += Median(build_s[i]);
    std::printf("%-8zu %20llu %7zu %7zu %7zu %10.4f s %10.3f s %9s\n", i,
                static_cast<unsigned long long>(panel.seeds[i]), rep.events,
                rep.failed, rep.result.rounds, Median(build_s[i]),
                Median(walls), Hex(expected[i]).c_str());
  }
  std::string digests;
  for (std::uint32_t d : expected) digests += Hex(d);
  const std::uint32_t digest = Crc32(digests);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const std::vector<Pass>* passes : {&untraced, &traced}) {
    for (const Pass& pass : *passes) {
      CheckPass(pass, expected, passes == &traced ? "traced run" : "run",
                checks);
      for (const Rep& rep : pass.reps) {
        attempted += rep.events;
        failed += rep.failed;
      }
    }
  }

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = PerLayerMetrics(panel, traced, untraced, reference.twins, checks);
    const fs::path dir = opt.workdir / "traces";
    fs::create_directories(dir);
    const fs::path file =
        dir / (std::string(name) + "-" + std::to_string(opt.seed) + ".json");
    WriteChromeTrace(last_spans, file.string());
    std::printf("trace file: %s (%zu spans of the last traced run)\n",
                file.string().c_str(), last_spans.size());
    std::printf("per-layer metrics, median of %zu traced passes:\n",
                traced.size());
  } else {
    metrics = EndToEndMetrics(untraced, setup_s, peak_rss_mib, checks);
    std::printf("end-to-end metrics over %zu passes:\n", untraced.size());
  }
  // The result line is JSON, which has no NaN or infinity.
  for (Metric& m : metrics) {
    checks.Expect(std::isfinite(m.value), m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
  }
  PrintMetrics(metrics);
  if (opt.trace) {
    std::printf("layer self time as a share of sim.run_ms:\n");
    for (const Metric& m : metrics) {
      if (m.name.rfind("share.", 0) == 0) {
        std::printf("  %-32s %6.2f%%\n", m.name.c_str(), m.value);
      }
    }
    std::printf("tracing overhead: %+.2f%% events/s, untraced over traced\n",
                metrics.back().value);
  }
  if (!checks.ok()) failed = attempted;
  std::printf("events attempted %zu, failed %zu; digest %s; checks %s\n",
              attempted, failed, Hex(digest).c_str(),
              checks.ok() ? "passed" : "FAILED");
  std::printf("%s\n", ResultLine(name, opt, digest, checks, attempted, failed,
                                 metrics)
                          .c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      const auto kind = ParseWorkload(value);
      if (!kind) return false;
      opt.workload = *kind;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload scale|paper|robust "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  try {
    return perfbench::Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
