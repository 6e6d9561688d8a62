// Ablation C — Background dynamics: static background (the paper's Fig. 7
// setting) vs churning background (Section III-C: "the update queue is in
// flux due to the changed network traffic"). Churn is what lets LMTF harvest
// cheap execution moments, so its cost reductions should collapse without
// it, while P-LMTF's parallelism gains persist.
#include "bench_common.h"
#include "exp/runner.h"

using namespace nu;

namespace {

void RunMode(bool churn, std::size_t trials) {
  std::printf("--- background: %s ---\n", churn ? "churning" : "static");
  AsciiTable table({"scheduler", "avg ECT (s)", "avg-ECT red.", "cost (Mbps)",
                    "cost red."});
  exp::ExperimentConfig config;
  config.fat_tree_k = 8;
  config.utilization = 0.65;
  config.event_count = 30;
  config.min_flows_per_event = 10;
  config.max_flows_per_event = 100;
  config.alpha = 4;
  config.background_churn = churn;
  config.seed = 14000;

  const std::vector<sched::SchedulerKind> kinds{
      sched::SchedulerKind::kFifo, sched::SchedulerKind::kLmtf,
      sched::SchedulerKind::kPlmtf};
  const exp::ComparisonResult result =
      exp::CompareSchedulers(config, kinds, false, trials);
  const auto& fifo = result.mean_by_name.at("fifo");
  for (const char* name : {"fifo", "lmtf", "p-lmtf"}) {
    const auto& r = result.mean_by_name.at(name);
    table.Row()
        .Cell(std::string(name))
        .Cell(r.avg_ect, 1)
        .Cell(PercentString(ReductionVs(fifo.avg_ect, r.avg_ect)))
        .Cell(r.total_cost, 0)
        .Cell(PercentString(ReductionVs(fifo.total_cost, r.total_cost)));
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Ablation: static vs churning background traffic",
      "8-pod Fat-Tree, 30 events of 10-100 flows, alpha=4, util 65%");
  const std::size_t trials = Flags::Parse(argc, argv).GetUint("trials", 3);
  RunMode(true, trials);
  RunMode(false, trials);
  bench::PrintFooter(
      "with churn, LMTF's cost reduction is large (it executes events at "
      "cheap moments); with static background cost is order-insensitive and "
      "the schedulers' ECT gains come from ordering/parallelism alone");
  return 0;
}
