// Ablation E — does LMTF's cost probing earn its plan time? Compare LMTF
// against SJF-by-size (same sampling, candidates ranked by flow count, zero
// probes). If event size alone predicted service time, SJF would match LMTF
// for free; when migration cost varies independently of size — congested
// fabric, background churn — the cost probe pays for itself.
#include "bench_common.h"
#include "exp/runner.h"

using namespace nu;

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Ablation: LMTF cost probing vs free size-based SJF",
      "8-pod Fat-Tree, 30 events of 10-100 flows, alpha=4, util sweep");
  const std::size_t trials = Flags::Parse(argc, argv).GetUint("trials", 3);

  AsciiTable table({"utilization", "FIFO avg ECT", "SJF-size avg ECT",
                    "LMTF avg ECT", "SJF red.", "LMTF red.",
                    "LMTF cost red.", "SJF cost red."});
  const std::vector<sched::SchedulerKind> kinds{
      sched::SchedulerKind::kFifo, sched::SchedulerKind::kSjf,
      sched::SchedulerKind::kLmtf};

  for (double utilization : {0.4, 0.55, 0.7, 0.85}) {
    exp::ExperimentConfig config;
    config.fat_tree_k = 8;
    config.utilization = utilization;
    config.event_count = 30;
    config.min_flows_per_event = 10;
    config.max_flows_per_event = 100;
    config.alpha = 4;
    config.seed = 17000 + static_cast<std::uint64_t>(utilization * 100);

    const exp::ComparisonResult result =
        exp::CompareSchedulers(config, kinds, false, trials);
    const auto& fifo = result.mean_by_name.at("fifo");
    const auto& sjf = result.mean_by_name.at("sjf-size");
    const auto& lmtf = result.mean_by_name.at("lmtf");
    table.Row()
        .Cell(utilization, 2)
        .Cell(fifo.avg_ect, 1)
        .Cell(sjf.avg_ect, 1)
        .Cell(lmtf.avg_ect, 1)
        .Cell(PercentString(ReductionVs(fifo.avg_ect, sjf.avg_ect)))
        .Cell(PercentString(ReductionVs(fifo.avg_ect, lmtf.avg_ect)))
        .Cell(PercentString(ReductionVs(fifo.total_cost, lmtf.total_cost)))
        .Cell(PercentString(ReductionVs(fifo.total_cost, sjf.total_cost)));
  }
  table.Print();
  bench::PrintFooter(
      "at low utilization SJF rivals LMTF for free (size ~ service time); "
      "as utilization grows, migration dominates service and only the cost "
      "probe sees it — LMTF pulls ahead on ECT and dramatically on cost");
  return 0;
}
