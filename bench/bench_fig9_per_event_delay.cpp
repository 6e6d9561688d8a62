// Fig. 9 — Per-event queuing delay of 30 queued events under FIFO, LMTF and
// P-LMTF (utilization 50-70%, alpha = 4): the per-event view behind Fig. 8's
// aggregates. Events are listed in arrival order; the paper plots the
// per-event reduction against FIFO.
#include "bench_common.h"
#include "exp/runner.h"

using namespace nu;

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Figure 9: per-event queuing delay, 30 events",
      "8-pod Fat-Tree, 30 events of 10-100 flows, alpha=4, util 50-70%");
  const std::size_t trials = Flags::Parse(argc, argv).GetUint("trials", 1);
  (void)trials;  // per-event view uses a single seeded workload

  exp::ExperimentConfig config;
  config.fat_tree_k = 8;
  config.utilization = 0.6;
  config.event_count = 30;
  config.min_flows_per_event = 10;
  config.max_flows_per_event = 100;
  config.alpha = 4;
  config.seed = 9001;

  const exp::Workload workload(config);
  const sim::SimResult fifo =
      exp::RunScheduler(workload, sched::SchedulerKind::kFifo);
  const sim::SimResult lmtf =
      exp::RunScheduler(workload, sched::SchedulerKind::kLmtf);
  const sim::SimResult plmtf =
      exp::RunScheduler(workload, sched::SchedulerKind::kPlmtf);

  AsciiTable table({"event", "flows", "FIFO delay (s)", "LMTF delay (s)",
                    "P-LMTF delay (s)", "LMTF red.", "P-LMTF red."});
  std::size_t lmtf_wins = 0, plmtf_wins = 0;
  for (std::size_t i = 0; i < fifo.records.size(); ++i) {
    const double f = fifo.records[i].QueuingDelay();
    const double l = lmtf.records[i].QueuingDelay();
    const double p = plmtf.records[i].QueuingDelay();
    if (l < f) ++lmtf_wins;
    if (p < f) ++plmtf_wins;
    table.Row()
        .Cell(i)
        .Cell(fifo.records[i].flow_count)
        .Cell(f, 1)
        .Cell(l, 1)
        .Cell(p, 1)
        .Cell(PercentString(ReductionVs(f, l), 0))
        .Cell(PercentString(ReductionVs(f, p), 0));
  }
  table.Print();
  std::printf("events with reduced delay: LMTF %zu/30, P-LMTF %zu/30\n",
              lmtf_wins, plmtf_wins);
  bench::PrintFooter(
      "most events see lower queuing delay than FIFO; P-LMTF dominates LMTF "
      "because displaced heavy events run opportunistically");
  return 0;
}
