#include "workloads.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "common/rng_streams.h"
#include "exp/config.h"
#include "exp/serve.h"
#include "fault/fault_plan.h"
#include "fault/srlg.h"
#include "net/admission.h"
#include "sched/factory.h"
#include "serve/arrivals.h"
#include "serve/degradable.h"
#include "trace/generator.h"

namespace perfbench {
namespace {

using namespace nu;

// --- scale -------------------------------------------------------------------
//
// A copy of bench/bench_scale.cpp's file-local locality generator and
// injection loop: the bench_scale tier is the workload, and those helpers
// are not part of the library.

/// A sparse, skewed traffic matrix: flows are drawn from a fixed hot set of
/// host pairs, 40% rack-local, 30% pod-local and 30% anywhere, with the
/// draw skewed toward the front of the set.
class LocalityGenerator final : public trace::TrafficGenerator {
 public:
  LocalityGenerator(const topo::FatTree& ft, std::size_t hot_pairs, Rng rng)
      : rng_(rng) {
    pairs_.reserve(hot_pairs);
    const std::size_t hosts = ft.host_count();
    const std::size_t edge = ft.config().k / 2;
    const std::size_t pod = edge * edge;
    while (pairs_.size() < hot_pairs) {
      const NodeId src = ft.host(rng_.Index(hosts));
      const double roll = rng_.Uniform01();
      NodeId dst = src;
      for (std::size_t guard = 0; dst == src && guard < 64; ++guard) {
        if (roll < 0.4) {
          dst = ft.host(ft.HostIndex(src) / edge * edge + rng_.Index(edge));
        } else if (roll < 0.7) {
          dst = ft.host(ft.HostIndex(src) / pod * pod + rng_.Index(pod));
        } else {
          dst = ft.host(rng_.Index(hosts));
        }
      }
      if (dst != src) pairs_.push_back({src, dst});
    }
  }

  [[nodiscard]] trace::FlowSpec Next() override {
    const double u = rng_.Uniform01() * rng_.Uniform01();
    const auto idx =
        static_cast<std::size_t>(u * static_cast<double>(pairs_.size()));
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
  Rng rng_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;
};

flow::Flow ToFlow(const trace::FlowSpec& spec) {
  flow::Flow f;
  f.src = spec.src;
  f.dst = spec.dst;
  f.demand = spec.demand;
  f.duration = spec.duration;
  return f;
}

constexpr std::size_t kScaleK = 16;
constexpr std::size_t kScaleFlows = 50'000;
constexpr std::size_t kScaleHotPairs = kScaleFlows / 25;
constexpr std::size_t kScaleEvents = 200;

void BuildScale(Instance& in, std::uint64_t seed) {
  Rng root(seed);
  Rng inject_rng = root.Fork();
  Rng event_rng = root.Fork();

  in.fat_tree = std::make_unique<topo::FatTree>(
      topo::FatTreeConfig{.k = kScaleK, .link_capacity = 4000.0});
  in.fat_tree_paths =
      std::make_unique<topo::FatTreePathProvider>(*in.fat_tree);
  in.own_network = std::make_unique<net::Network>(in.fat_tree->graph());

  LocalityGenerator inject(*in.fat_tree, kScaleHotPairs, inject_rng);
  std::size_t placed = 0;
  for (std::size_t attempts = 0;
       placed < kScaleFlows && attempts < kScaleFlows * 20; ++attempts) {
    flow::Flow f = ToFlow(inject.Next());
    if (const auto path = net::FindFeasiblePath(
            *in.own_network, *in.fat_tree_paths, f.src, f.dst, f.demand,
            net::PathSelection::kFirstFit)) {
      f.origin = flow::FlowOrigin::kBackground;
      in.own_network->Place(f, *path);
      ++placed;
    }
  }
  in.own_network->ShrinkToFit();

  LocalityGenerator event_gen(*in.fat_tree, kScaleHotPairs, event_rng);
  in.events.reserve(kScaleEvents);
  for (std::uint64_t e = 0; e < kScaleEvents; ++e) {
    // Five flows on average; varying the count keeps ECTs seed-dependent.
    std::vector<flow::Flow> flows;
    const std::size_t flow_count = 3 + event_rng.Index(5);
    for (std::size_t i = 0; i < flow_count; ++i) {
      flows.push_back(ToFlow(event_gen.Next()));
    }
    in.events.emplace_back(EventId{e}, 0.0, std::move(flows));
  }

  in.paths = in.fat_tree_paths.get();
  in.network = in.own_network.get();
  in.sim.seed = root.Next();
  in.sim.guard.auditor.enabled = true;
  in.sim.guard.auditor.mode = guard::AuditMode::kLogAndCount;
  in.sim.guard.auditor.cadence = 500;
  in.sim.churn.enabled = true;
  in.sim.churn.placement.max_flows = kScaleFlows * 2;
  // The sharded twin: one shard per pod, and the coordinator plus three
  // workers fill a 4-core host.
  in.sharded = in.sim;
  in.sharded->shards = in.fat_tree->pod_count();
  in.sharded->shard_threads = 3;
  const topo::FatTree* ft = in.fat_tree.get();
  in.churn = [ft](std::uint64_t churn_seed) {
    return std::make_unique<LocalityGenerator>(*ft, kScaleHotPairs,
                                               Rng(churn_seed));
  };
  in.make_scheduler = [] {
    return sched::MakeScheduler(sched::SchedulerKind::kLmtf,
                                sched::LmtfConfig{.alpha = 4});
  };
}

/// exp/runner.cc's file-local simulator wiring (seed stream and churn
/// factory), applied to an Instance so the benchmark can wrap its parts.
void WireLikeRunner(Instance& in, const sim::SimConfig& base) {
  const exp::Workload& w = *in.workload;
  in.paths = &w.paths();
  in.network = &w.network();
  in.sim = base;
  in.sim.seed = StreamSeed(w.config().seed, RngStream::kSimFromWorkload);
  in.sim.churn.enabled = w.config().background_churn;
  in.sim.churn.placement = w.background_options();
  if (in.sim.churn.enabled) {
    in.churn = [&w](std::uint64_t churn_seed) {
      return exp::MakeTrafficGenerator(w.config().background_trace, w.hosts(),
                                       Rng(churn_seed));
    };
  }
}

// --- paper -------------------------------------------------------------------

void BuildPaper(Instance& in, std::uint64_t seed) {
  exp::ExperimentConfig config;
  config.fat_tree_k = 8;
  config.background_trace = exp::TraceFamily::kYahooLike;
  config.utilization = 0.65;
  config.background_churn = true;
  config.event_count = 400;
  config.min_flows_per_event = 10;
  config.max_flows_per_event = 100;
  config.mean_interarrival = 0.0;
  config.alpha = 4;
  config.seed = seed;
  in.workload = std::make_unique<exp::Workload>(config);
  in.events = in.workload->events();
  WireLikeRunner(in, config.sim);
  in.make_scheduler = [] {
    return sched::MakeScheduler(sched::SchedulerKind::kPlmtf,
                                sched::LmtfConfig{.alpha = 4});
  };
}

// --- robust ------------------------------------------------------------------

/// Serve arrivals draw their flows from the background trace generator.
/// Like exp::Workload's offline events, cap each flow's demand and
/// transmission time: with churn off the background never departs, and an
/// elephant that finds no free path never installs, so the watchdog
/// quarantines its event.
class CappedFlows final : public trace::TrafficGenerator {
 public:
  CappedFlows(std::unique_ptr<trace::TrafficGenerator> inner, Mbps demand,
              Seconds duration)
      : inner_(std::move(inner)), demand_(demand), duration_(duration) {}

  [[nodiscard]] trace::FlowSpec Next() override {
    trace::FlowSpec spec = inner_->Next();
    spec.demand = std::min(spec.demand, demand_);
    spec.duration = std::min(spec.duration, duration_);
    return spec;
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<trace::TrafficGenerator> inner_;
  Mbps demand_;
  Seconds duration_;
};

// About 300 arrivals per instance. Utilization, rate and the flow demand
// cap are set so that every arrival completes: the guard, watchdog and
// brownout ladder run but shed nothing.
constexpr double kRobustRate = 0.1;          // arrivals per virtual second
constexpr Seconds kRobustDuration = 3000.0;  // arrival window, virtual s
constexpr Mbps kRobustFlowDemand = 20.0;

void BuildRobust(Instance& in, std::uint64_t seed) {
  exp::ServeCampaignConfig campaign = exp::DefaultServeCampaign(kRobustRate);
  campaign.exp.fat_tree_k = 8;
  campaign.exp.seed = seed;
  campaign.exp.utilization = 0.5;
  campaign.exp.background_churn = false;
  campaign.serve.arrivals.duration = kRobustDuration;

  fault::FaultConfig& faults = campaign.exp.sim.faults;
  faults.flaky.failure_probability = 0.1;
  faults.flaky.latency_jitter_frac = 0.1;
  faults.retry.max_attempts = 3;
  faults.retry.base_delay = 0.05;
  faults.grey = fault::ParseGreyModel(
      "acklie:0.02+straggler:0.05:0.1:0.5+loss:0.02:0.5:1.5");
  campaign.exp.sim.recon.enabled = true;
  campaign.exp.sim.checkpoint.cadence = 10;
  // The brownout ladder still degrades the scheduler and suppresses
  // audits, but sheds no tenant.
  campaign.serve.brownout.shed_min_priority = 0;

  // exp/serve.cc builds a serve workload with the offline queue emptied
  // and the event shape taken from the arrival config.
  exp::ExperimentConfig workload_config = campaign.exp;
  workload_config.event_count = 0;
  workload_config.min_flows_per_event = campaign.serve.arrivals.min_flows;
  workload_config.max_flows_per_event = campaign.serve.arrivals.max_flows;
  in.workload = std::make_unique<exp::Workload>(workload_config);
  CappedFlows flows(
      exp::MakeTrafficGenerator(
          campaign.exp.background_trace, in.workload->hosts(),
          Rng(StreamSeed(seed, RngStream::kServeFlowSource))),
      kRobustFlowDemand, campaign.exp.max_event_flow_duration);
  in.events = serve::GenerateArrivals(campaign.serve.arrivals, flows, seed);

  // Random fabric-link outages spread over the arrival window, then one
  // pod SRLG outage in the middle of it. The plan draws from its own
  // stream, apart from the simulator's fault-injection stream.
  Rng fault_rng(StreamSeed(seed, RngStream::kFaultInjection) ^ 0x9E57ULL);
  fault::RandomLinkFaultOptions links;
  links.failures = 6;
  links.first_failure = 60.0;
  links.spacing = kRobustDuration / 7.0;
  links.outage = 30.0;
  faults.plan = fault::MakeRandomLinkFaultPlan(in.workload->fat_tree().graph(),
                                               links, fault_rng);
  const std::vector<fault::SharedRiskGroup> groups =
      fault::DeriveFatTreeSrlgs(in.workload->fat_tree());
  const std::size_t pod = fault_rng.Index(campaign.exp.fat_tree_k);
  const std::size_t group = faults.plan.AddGroup(groups[pod]);
  faults.plan.AddGroupOutage(kRobustDuration / 2.0, 10.0, group);

  sim::SimConfig sim = campaign.exp.sim;
  sim.serve = campaign.serve;
  sim.serve.enabled = true;
  WireLikeRunner(in, sim);
  in.checkpointed = true;
  const std::size_t alpha = campaign.exp.alpha;
  const std::size_t degraded_alpha = campaign.serve.brownout.degraded_alpha;
  in.make_scheduler = [alpha, degraded_alpha] {
    return std::make_unique<serve::DegradableScheduler>(
        sched::LmtfConfig{.alpha = alpha}, degraded_alpha);
  };
}

}  // namespace

std::optional<WorkloadKind> ParseWorkload(std::string_view name) {
  for (WorkloadKind kind :
       {WorkloadKind::kScale, WorkloadKind::kPaper, WorkloadKind::kRobust}) {
    if (name == ToString(kind)) return kind;
  }
  return std::nullopt;
}

const char* ToString(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kScale:
      return "scale";
    case WorkloadKind::kPaper:
      return "paper";
    case WorkloadKind::kRobust:
      return "robust";
  }
  return "?";
}

std::vector<std::uint64_t> PanelSeeds(WorkloadKind kind, std::uint64_t seed) {
  // Sized so one pass over the panel takes 6-16 s on a 4-core host.
  const std::size_t size =
      kind == WorkloadKind::kScale ? 2 : 8;
  Rng root(seed);
  std::vector<std::uint64_t> seeds(size);
  for (std::uint64_t& s : seeds) s = root.Next();
  return seeds;
}

std::unique_ptr<Instance> BuildInstance(WorkloadKind kind, std::uint64_t seed) {
  auto in = std::make_unique<Instance>();
  switch (kind) {
    case WorkloadKind::kScale:
      BuildScale(*in, seed);
      break;
    case WorkloadKind::kPaper:
      BuildPaper(*in, seed);
      break;
    case WorkloadKind::kRobust:
      BuildRobust(*in, seed);
      break;
  }
  return in;
}

}  // namespace perfbench
