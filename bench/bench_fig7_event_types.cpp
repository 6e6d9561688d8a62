// Fig. 7 — P-LMTF's reduction vs FIFO in average and tail ECT for two event
// types under network utilization 50-90%:
//   * heterogeneous events: 10-100 flows each,
//   * synchronous events:   50-60 flows each.
// 30 events, alpha = 4, static background (the background flows never
// depart in our simulator, matching the paper's setup).
#include "bench_common.h"
#include "exp/runner.h"

using namespace nu;

namespace {

void RunType(const char* label, std::size_t min_flows, std::size_t max_flows,
             std::size_t trials) {
  std::printf("--- %s events (%zu-%zu flows) ---\n", label, min_flows,
              max_flows);
  AsciiTable table({"utilization", "avg-ECT reduction", "tail-ECT reduction"});
  const std::vector<sched::SchedulerKind> kinds{
      sched::SchedulerKind::kFifo, sched::SchedulerKind::kPlmtf};

  for (double utilization = 0.5; utilization <= 0.91; utilization += 0.1) {
    exp::ExperimentConfig config;
    config.fat_tree_k = 8;
    config.utilization = utilization;
    config.event_count = 30;
    config.min_flows_per_event = min_flows;
    config.max_flows_per_event = max_flows;
    config.alpha = 4;
    // "For this set of experiments ... we keep the background traffic
    // static" (Section V-D).
    config.background_churn = false;
    config.seed = 7000 + static_cast<std::uint64_t>(utilization * 100);

    const exp::ComparisonResult result =
        exp::CompareSchedulers(config, kinds, false, trials);
    const auto& fifo = result.mean_by_name.at("fifo");
    const auto& plmtf = result.mean_by_name.at("p-lmtf");
    table.Row()
        .Cell(utilization, 1)
        .Cell(PercentString(ReductionVs(fifo.avg_ect, plmtf.avg_ect)))
        .Cell(PercentString(ReductionVs(fifo.tail_ect, plmtf.tail_ect)));
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Figure 7: P-LMTF vs FIFO by event type and utilization",
      "8-pod Fat-Tree, 30 events, alpha=4, utilization 50..90%");
  const std::size_t trials = Flags::Parse(argc, argv).GetUint("trials", 2);
  RunType("heterogeneous", 10, 100, trials);
  RunType("synchronous", 50, 60, trials);
  bench::PrintFooter(
      "paper: heterogeneous 60-70% avg / 40-60% tail reduction; synchronous "
      "40-50% / 30-50%; both largely insensitive to utilization");
  return 0;
}
