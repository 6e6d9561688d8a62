// Ablation A — The power of d choices in LMTF: sweep the sample size alpha
// from 0 (= FIFO) through 8 and to the full queue (= the intrinsic reorder
// scheduler). The paper claims alpha = 2 already captures most of the gain
// (Section IV-B, citing Mitzenmacher's power-of-two-choices result).
#include "bench_common.h"
#include "exp/runner.h"

using namespace nu;

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Ablation: LMTF sample size alpha (power of d choices)",
      "8-pod Fat-Tree, 30 events of 10-100 flows, utilization 60%");
  const std::size_t trials = Flags::Parse(argc, argv).GetUint("trials", 3);

  exp::ExperimentConfig base;
  base.fat_tree_k = 8;
  base.utilization = 0.6;
  base.event_count = 30;
  base.min_flows_per_event = 10;
  base.max_flows_per_event = 100;
  base.seed = 11000;

  // FIFO anchor (alpha = 0) and reorder anchor (alpha = queue).
  const std::vector<sched::SchedulerKind> anchors{
      sched::SchedulerKind::kFifo, sched::SchedulerKind::kReorder};
  const exp::ComparisonResult anchor_result =
      exp::CompareSchedulers(base, anchors, false, trials);
  const auto& fifo = anchor_result.mean_by_name.at("fifo");
  const auto& reorder = anchor_result.mean_by_name.at("reorder");

  AsciiTable table({"alpha", "avg ECT (s)", "avg-ECT red. vs FIFO",
                    "plan time (s)", "plan/FIFO"});
  table.Row()
      .Cell(std::string("0 (fifo)"))
      .Cell(fifo.avg_ect, 1)
      .Cell(PercentString(0.0))
      .Cell(fifo.total_plan_time, 2)
      .Cell(1.0, 2);

  for (std::size_t alpha = 1; alpha <= 8; ++alpha) {
    exp::ExperimentConfig config = base;
    config.alpha = alpha;
    const std::vector<sched::SchedulerKind> kinds{sched::SchedulerKind::kLmtf};
    const exp::ComparisonResult result =
        exp::CompareSchedulers(config, kinds, false, trials);
    const auto& lmtf = result.mean_by_name.at("lmtf");
    table.Row()
        .Cell(alpha)
        .Cell(lmtf.avg_ect, 1)
        .Cell(PercentString(ReductionVs(fifo.avg_ect, lmtf.avg_ect)))
        .Cell(lmtf.total_plan_time, 2)
        .Cell(lmtf.total_plan_time / fifo.total_plan_time, 2);
  }
  table.Row()
      .Cell(std::string("queue (reorder)"))
      .Cell(reorder.avg_ect, 1)
      .Cell(PercentString(ReductionVs(fifo.avg_ect, reorder.avg_ect)))
      .Cell(reorder.total_plan_time, 2)
      .Cell(reorder.total_plan_time / fifo.total_plan_time, 2);
  table.Print();
  bench::PrintFooter(
      "gains grow steeply to alpha~2 then flatten, while plan time grows "
      "linearly; full reorder buys little extra ECT for much more plan time");
  return 0;
}
