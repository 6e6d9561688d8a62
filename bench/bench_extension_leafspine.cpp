// Extension bench — generality across fabrics. The paper evaluates on a
// Fat-Tree only; every algorithm here sees fabrics through PathProvider +
// Network, so the scheduling deltas should carry over to a leaf-spine Clos.
// Same workload shape on both topologies, side by side.
#include "bench_common.h"
#include "exp/runner.h"

using namespace nu;

namespace {

void RunTopology(exp::TopologyKind topology, std::size_t trials) {
  exp::ExperimentConfig config;
  config.topology = topology;
  config.fat_tree_k = 8;                // 128 hosts
  config.leaf_spine_leaves = 16;        // 128 hosts
  config.leaf_spine_spines = 8;
  config.leaf_spine_hosts_per_leaf = 8;
  config.utilization = 0.65;
  config.event_count = 30;
  config.min_flows_per_event = 10;
  config.max_flows_per_event = 100;
  config.alpha = 4;
  config.seed = 20000;

  const std::vector<sched::SchedulerKind> kinds{
      sched::SchedulerKind::kFifo, sched::SchedulerKind::kLmtf,
      sched::SchedulerKind::kPlmtf};
  const exp::ComparisonResult result =
      exp::CompareSchedulers(config, kinds, false, trials);
  const auto& fifo = result.mean_by_name.at("fifo");

  std::printf("--- %s (128 hosts, util 65%%) ---\n",
              exp::ToString(topology));
  AsciiTable table({"scheduler", "avg ECT (s)", "avg-ECT red.",
                    "tail ECT (s)", "tail red.", "plan/FIFO"});
  for (const char* name : {"fifo", "lmtf", "p-lmtf"}) {
    const auto& r = result.mean_by_name.at(name);
    table.Row()
        .Cell(std::string(name))
        .Cell(r.avg_ect, 1)
        .Cell(PercentString(ReductionVs(fifo.avg_ect, r.avg_ect)))
        .Cell(r.tail_ect, 1)
        .Cell(PercentString(ReductionVs(fifo.tail_ect, r.tail_ect)))
        .Cell(fifo.total_plan_time > 0.0
                  ? r.total_plan_time / fifo.total_plan_time
                  : 0.0,
              2);
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Extension: scheduler deltas across fabric families",
      "identical 30-event workload shape on a Fat-Tree and a leaf-spine");
  const std::size_t trials = Flags::Parse(argc, argv).GetUint("trials", 3);
  RunTopology(exp::TopologyKind::kFatTree, trials);
  RunTopology(exp::TopologyKind::kLeafSpine, trials);
  bench::PrintFooter(
      "P-LMTF's large reductions carry over unchanged to the leaf-spine; "
      "LMTF's smaller margin is noise-sensitive on fabrics whose fat spine "
      "links rarely force migration (less cost signal to order by)");
  return 0;
}
