// Robustness bench — online serving brownout sweep. Calibrates the
// fabric's service rate with a closed batch, then drives the open-loop
// Poisson arrival stream at offered loads from half capacity to 3x while a
// pod-wide SRLG outage lands mid-run, with the full serve stack on:
// per-tenant token-bucket admission, deadline-aware rejection, the brownout
// controller's degradation ladder, and the invariant auditor in
// log-and-count mode.
//
// This is the acceptance soak for the serve subsystem: every load must
// terminate with ZERO audit violations, and every overloaded cell (>= 2x)
// must both reach Shedding and recover to Healthy with the excess absorbed
// by rejections/sheds — the binary aborts (NU_CHECK) otherwise, so a red
// run cannot be committed to results/ unnoticed.
//
// Run:  ./bench_serve [--seed=S] [--csv=PATH]
#include <vector>

#include "bench_common.h"
#include "exp/serve.h"

using namespace nu;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  bench::PrintHeader(
      "Robustness: online serving brownout sweep",
      "4-pod Fat-Tree, 60 s Poisson stream, two tenants (premium prio 2 / "
      "besteffort prio 0), token-bucket admission + deadline rejection, "
      "brownout ladder over bounded queue (16, shed-costliest), pod0 SRLG "
      "outage at t=20 for 10 s, auditor log-and-count");

  exp::ServeCampaignConfig campaign = exp::DefaultServeCampaign(/*rate=*/1.0);
  campaign.exp.seed = flags.GetUint("seed", campaign.exp.seed);
  campaign.pod_outage = true;

  const std::vector<double> loads{0.5, 1.0, 2.0, 3.0};
  const std::vector<exp::ServeSweepPoint> points =
      exp::RunServeSweep(campaign, loads, /*calibrate=*/true);

  AsciiTable table({"load", "rate/s", "arrivals", "admitted", "completed",
                    "rejected", "shed", "slo miss", "p50", "p99", "p999",
                    "jain ECT", "transitions", "final", "violations"});
  for (const exp::ServeSweepPoint& point : points) {
    const serve::ServeSummary& s = point.result.serve;
    const std::size_t rejected =
        s.rejected_budget + s.rejected_deadline + s.rejected_priority;

    // The soak's pass/fail line: clean audits at every load; overloaded
    // cells must walk the ladder down to Shedding AND climb back out.
    NU_CHECK(point.result.violations.empty());
    if (point.offered_load >= 2.0) {
      NU_CHECK(s.reached_shedding && "overloaded cell never shed");
      NU_CHECK(s.recovered_healthy && "brownout never recovered");
      NU_CHECK(rejected + s.shed_queue > 0 && "excess load not absorbed");
    }

    table.Row()
        .Cell(point.offered_load, 1)
        .Cell(point.rate, 2)
        .Cell(s.arrivals)
        .Cell(s.admitted)
        .Cell(s.completed)
        .Cell(rejected)
        .Cell(s.shed_queue)
        .Cell(s.slo_misses)
        .Cell(s.ect_p50, 2)
        .Cell(s.ect_p99, 2)
        .Cell(s.ect_p999, 2)
        .Cell(s.jain_ect, 3)
        .Cell(s.transitions)
        .Cell(std::string(serve::ToString(s.final_state)))
        .Cell(point.result.violations.size());
  }
  table.Print();
  bench::MaybeWriteCsv(table, flags.GetString("csv", ""));
  bench::PrintFooter(
      "admitted count saturates near capacity while rejections/sheds absorb "
      "the excess above 1x; overloaded rows reach Shedding during the pod "
      "outage and end Healthy (hysteresis ladder, one level per transition); "
      "violations stay 0 and admitted-tail ECT stays bounded at every load");
  return 0;
}
