// Fig. 4 — Average and tail ECT of 10 update events, flow-level vs
// event-level scheduling, as the average number of flows per event grows
// from 15 to 75, network utilization ~= 70%. Values are normalized by the
// maximum of the flow-level method, as in the paper.
#include <algorithm>

#include "bench_common.h"
#include "exp/runner.h"

using namespace nu;

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Figure 4: flow-level vs event-level ECT vs flows-per-event",
      "8-pod Fat-Tree, 10 events, utilization ~70%, avg flows/event 15..75");
  const std::size_t trials = Flags::Parse(argc, argv).GetUint("trials", 3);

  struct Point {
    std::size_t avg_flows;
    double flow_avg, flow_tail, event_avg, event_tail;
  };
  std::vector<Point> points;
  double flow_avg_max = 0.0, flow_tail_max = 0.0;

  for (std::size_t avg_flows = 15; avg_flows <= 75; avg_flows += 10) {
    exp::ExperimentConfig config;
    config.fat_tree_k = 8;
    config.utilization = 0.7;
    config.event_count = 10;
    // "average number of flows" f with a +-5 spread.
    config.min_flows_per_event = avg_flows - 5;
    config.max_flows_per_event = avg_flows + 5;
    config.seed = 4000 + avg_flows;

    const std::vector<sched::SchedulerKind> kinds{sched::SchedulerKind::kPlmtf};
    const exp::ComparisonResult result =
        exp::CompareSchedulers(config, kinds, /*include_flow_level=*/true,
                               trials);
    const auto& flow = result.mean_by_name.at(exp::kFlowLevelName);
    const auto& event = result.mean_by_name.at("p-lmtf");
    points.push_back(Point{avg_flows, flow.avg_ect, flow.tail_ect,
                           event.avg_ect, event.tail_ect});
    flow_avg_max = std::max(flow_avg_max, flow.avg_ect);
    flow_tail_max = std::max(flow_tail_max, flow.tail_ect);
  }

  AsciiTable table({"avg flows/event", "flow-level avg (norm)",
                    "event-level avg (norm)", "flow-level tail (norm)",
                    "event-level tail (norm)", "avg speedup", "tail speedup"});
  for (const Point& p : points) {
    table.Row()
        .Cell(p.avg_flows)
        .Cell(p.flow_avg / flow_avg_max, 3)
        .Cell(p.event_avg / flow_avg_max, 3)
        .Cell(p.flow_tail / flow_tail_max, 3)
        .Cell(p.event_tail / flow_tail_max, 3)
        .Cell(p.flow_avg / p.event_avg, 2)
        .Cell(p.flow_tail / p.event_tail, 2);
  }
  table.Print();
  bench::PrintFooter(
      "event-level average ECT up to ~10x lower and tail ECT up to ~6x lower "
      "than flow-level; flow-level curves climb steeply past ~35 flows/event");
  return 0;
}
