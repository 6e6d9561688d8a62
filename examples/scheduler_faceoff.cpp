// Scheduler face-off: every policy in the library (flow-level baseline,
// FIFO, full reorder, LMTF, P-LMTF) on one identical workload, with a
// per-event timeline so the head-of-line-blocking story of the paper's
// Figs. 2-3 is visible in the output.
//
// Run:  ./scheduler_faceoff [seed]
#include <cstdio>
#include <optional>

#include "common/table.h"
#include "common/text.h"
#include "exp/runner.h"
#include "metrics/gantt.h"

int main(int argc, char** argv) {
  using namespace nu;

  exp::ExperimentConfig config;
  config.fat_tree_k = 8;
  config.utilization = 0.7;
  config.event_count = 15;
  config.min_flows_per_event = 10;
  config.max_flows_per_event = 100;
  config.alpha = 4;
  const std::optional<std::uint64_t> seed =
      argc > 1 ? ParseCount(argv[1]) : std::optional<std::uint64_t>(3);
  if (!seed) {
    std::fprintf(stderr, "usage: scheduler_faceoff [seed]\n");
    return 2;
  }
  config.seed = *seed;
  config.sim.keep_round_log = true;

  std::printf("workload seed %llu: %zu events, utilization target %.0f%%\n\n",
              static_cast<unsigned long long>(config.seed),
              config.event_count, config.utilization * 100.0);
  const exp::Workload workload(config);

  AsciiTable summary({"scheduler", "avg ECT", "tail ECT", "cost", "plan time",
                      "avg q-delay", "worst q-delay"});
  auto add = [&summary](const char* name, const metrics::Report& r) {
    summary.Row()
        .Cell(name)
        .Cell(r.avg_ect, 1)
        .Cell(r.tail_ect, 1)
        .Cell(r.total_cost, 0)
        .Cell(r.total_plan_time, 2)
        .Cell(r.avg_queuing_delay, 1)
        .Cell(r.worst_queuing_delay, 1);
  };

  add("flow-level", exp::RunFlowLevel(workload).report);
  sim::SimResult fifo_result;
  sim::SimResult plmtf_result;
  for (const auto kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kReorder,
        sched::SchedulerKind::kLmtf, sched::SchedulerKind::kSjf,
        sched::SchedulerKind::kPlmtf}) {
    const sim::SimResult result = exp::RunScheduler(workload, kind);
    add(sched::ToString(kind), result.report);
    if (kind == sched::SchedulerKind::kFifo) fifo_result = result;
    if (kind == sched::SchedulerKind::kPlmtf) plmtf_result = result;
  }
  summary.Print();

  std::printf("\nFIFO timeline:\n%s",
              metrics::RenderGantt(fifo_result.records).c_str());
  std::printf("\nP-LMTF timeline (note the parallel rounds):\n%s",
              metrics::RenderGantt(plmtf_result.records).c_str());

  std::printf("\nP-LMTF round timeline (parallel rounds marked by multiple "
              "events):\n");
  for (std::size_t i = 0; i < plmtf_result.round_log.size(); ++i) {
    const auto& round = plmtf_result.round_log[i];
    std::printf("  round %2zu at t=%8.2fs (plan %5.2fs): events [", i,
                round.decision_time, round.plan_time);
    for (std::size_t j = 0; j < round.executed.size(); ++j) {
      std::printf("%s%llu", j ? ", " : "",
                  static_cast<unsigned long long>(round.executed[j].value()));
    }
    std::printf("]%s\n", round.executed.size() > 1 ? "  <-- opportunistic" : "");
  }
  return 0;
}
