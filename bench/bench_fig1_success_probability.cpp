// Fig. 1 — Success probability of accommodating a flow of an update event
// WITHOUT migrating other flows, as link utilization grows, on an 8-pod
// Fat-Tree, under (a) the Yahoo!-like trace and (b) the random trace.
//
// The paper's point: past ~50% utilization, plain admission increasingly
// fails, motivating local migration.
#include "bench_common.h"
#include "exp/workload.h"
#include "net/admission.h"
#include "trace/background.h"

using namespace nu;

namespace {

void RunTrace(exp::TraceFamily family, std::size_t trials,
              std::size_t probes_per_point) {
  std::printf("--- trace: %s ---\n", exp::ToString(family));
  AsciiTable table({"utilization", "success probability"});

  for (double target = 0.1; target <= 0.91; target += 0.1) {
    double success_sum = 0.0;
    std::size_t samples = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      const topo::FatTree ft(
          topo::FatTreeConfig{.k = 8, .link_capacity = 1000.0});
      const topo::FatTreePathProvider provider(ft);
      net::Network network(ft.graph());
      Rng rng(1000 * trial + static_cast<std::uint64_t>(target * 100));
      const auto generator =
          exp::MakeTrafficGenerator(family, ft.hosts(), rng.Fork());
      trace::BackgroundOptions options;
      options.target_utilization = target;
      trace::InjectBackground(network, provider, *generator, options);

      // Probe: can a fresh trace flow be admitted with no migration?
      const auto prober =
          exp::MakeTrafficGenerator(family, ft.hosts(), rng.Fork());
      for (std::size_t p = 0; p < probes_per_point; ++p) {
        const trace::FlowSpec spec = prober->Next();
        if (net::CanAdmit(network, provider, spec.src, spec.dst,
                          spec.demand)) {
          success_sum += 1.0;
        }
        ++samples;
      }
    }
    table.Row()
        .Cell(target, 1)
        .Cell(success_sum / static_cast<double>(samples), 3);
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  bench::PrintHeader(
      "Figure 1: success probability of inserting a flow (no migration)",
      "8-pod Fat-Tree, 1 Gbps links; background injected to each utilization "
      "level, then fresh trace flows probed for admission");
  const std::size_t trials = flags.GetUint("trials", 3);
  const std::size_t probes = flags.GetUint("probes", 300);
  RunTrace(exp::TraceFamily::kYahooLike, trials, probes);
  RunTrace(exp::TraceFamily::kUniform, trials, probes);
  bench::PrintFooter(
      "success probability decreases monotonically with utilization for both "
      "traces, approaching a small value near 90% utilization");
  return 0;
}
