// Extension bench — online arrivals. The paper's evaluation queues every
// event at t=0; production update queues receive events over time. Sweep the
// mean inter-arrival gap from saturation (0 s, the paper's regime) toward an
// idle system and watch where scheduling stops mattering: when events arrive
// slower than they are served, every policy degenerates to "execute on
// arrival" and FIFO is optimal for free.
#include "bench_common.h"
#include "exp/runner.h"

using namespace nu;

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Extension: online event arrivals (inter-arrival sweep)",
      "8-pod Fat-Tree, 30 events of 10-100 flows, alpha=4, util 65%");
  const std::size_t trials = Flags::Parse(argc, argv).GetUint("trials", 3);

  AsciiTable table({"mean gap (s)", "FIFO avg ECT", "LMTF avg ECT",
                    "P-LMTF avg ECT", "LMTF red.", "P-LMTF red.",
                    "FIFO avg q-delay"});
  const std::vector<sched::SchedulerKind> kinds{
      sched::SchedulerKind::kFifo, sched::SchedulerKind::kLmtf,
      sched::SchedulerKind::kPlmtf};

  for (double gap : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    exp::ExperimentConfig config;
    config.fat_tree_k = 8;
    config.utilization = 0.65;
    config.event_count = 30;
    config.min_flows_per_event = 10;
    config.max_flows_per_event = 100;
    config.alpha = 4;
    config.mean_interarrival = gap;
    config.seed = 18000 + static_cast<std::uint64_t>(gap * 10);

    const exp::ComparisonResult result =
        exp::CompareSchedulers(config, kinds, false, trials);
    const auto& fifo = result.mean_by_name.at("fifo");
    const auto& lmtf = result.mean_by_name.at("lmtf");
    const auto& plmtf = result.mean_by_name.at("p-lmtf");
    table.Row()
        .Cell(gap, 1)
        .Cell(fifo.avg_ect, 1)
        .Cell(lmtf.avg_ect, 1)
        .Cell(plmtf.avg_ect, 1)
        .Cell(PercentString(ReductionVs(fifo.avg_ect, lmtf.avg_ect)))
        .Cell(PercentString(ReductionVs(fifo.avg_ect, plmtf.avg_ect)))
        .Cell(fifo.avg_queuing_delay, 1);
  }
  table.Print();
  bench::PrintFooter(
      "reductions are largest at gap 0 (the paper's saturated queue) and "
      "shrink as arrivals slow; once FIFO's queuing delay approaches zero, "
      "there is no queue to schedule and all policies converge");
  return 0;
}
