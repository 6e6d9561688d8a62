// Ablation D — P-LMTF's co-scheduling migration allowance: how much
// migration may an opportunistically co-scheduled event pay? 0 = only free
// wins (lowest cost, least parallelism); infinity = any fully feasible
// candidate (most parallelism, cost approaches eager execution).
#include <cmath>
#include <limits>

#include "bench_common.h"
#include "exp/runner.h"

using namespace nu;

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Ablation: P-LMTF co-scheduling migration allowance",
      "8-pod Fat-Tree, 30 events of 10-100 flows, alpha=4, util 65%");
  const std::size_t trials = Flags::Parse(argc, argv).GetUint("trials", 3);

  exp::ExperimentConfig base;
  base.fat_tree_k = 8;
  base.utilization = 0.65;
  base.event_count = 30;
  base.min_flows_per_event = 10;
  base.max_flows_per_event = 100;
  base.alpha = 4;
  base.seed = 15000;

  // FIFO anchor for the reductions.
  const std::vector<sched::SchedulerKind> fifo_only{
      sched::SchedulerKind::kFifo};
  const auto fifo_result = exp::CompareSchedulers(base, fifo_only, false,
                                                  trials);
  const auto& fifo = fifo_result.mean_by_name.at("fifo");

  AsciiTable table({"allowance (Mbps)", "avg ECT (s)", "avg-ECT red.",
                    "cost (Mbps)", "cost red.", "plan/FIFO"});
  const double allowances[] = {0.0, 50.0, 100.0, 200.0, 400.0,
                               std::numeric_limits<double>::infinity()};
  const std::vector<sched::SchedulerKind> plmtf_only{
      sched::SchedulerKind::kPlmtf};
  for (double allowance : allowances) {
    exp::ExperimentConfig config = base;
    config.sim.plmtf_co_migration_allowance = allowance;
    const auto result =
        exp::CompareSchedulers(config, plmtf_only, false, trials);
    const auto& r = result.mean_by_name.at("p-lmtf");
    table.Row()
        .Cell(std::isinf(allowance) ? std::string("inf")
                                    : FormatDouble(allowance, 0))
        .Cell(r.avg_ect, 1)
        .Cell(PercentString(ReductionVs(fifo.avg_ect, r.avg_ect)))
        .Cell(r.total_cost, 0)
        .Cell(PercentString(ReductionVs(fifo.total_cost, r.total_cost)))
        .Cell(r.total_plan_time / fifo.total_plan_time, 2);
  }
  table.Print();
  bench::PrintFooter(
      "avg ECT improves with allowance (more parallelism) while cost "
      "reduction degrades; the default (100 Mbps) balances the two");
  return 0;
}
