#include "serve/runtime.h"

#include <array>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "common/table.h"

namespace nu::serve {
namespace {

/// The ECT quantiles the timeseries rows and the summary report.
constexpr std::array<double, 4> kEctQuantiles{0.5, 0.9, 0.99, 0.999};

std::vector<double> RosterWeights(const std::vector<TenantSpec>& roster) {
  std::vector<double> weights;
  weights.reserve(roster.size());
  for (const TenantSpec& t : roster) weights.push_back(t.weight);
  return weights;
}

std::vector<std::string> RosterNames(const std::vector<TenantSpec>& roster) {
  std::vector<std::string> names;
  names.reserve(roster.size());
  for (const TenantSpec& t : roster) names.push_back(t.name);
  return names;
}

}  // namespace

const char* ToString(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kBudget:
      return "budget";
    case RejectReason::kDeadline:
      return "deadline";
    case RejectReason::kPriority:
      return "priority";
  }
  return "?";
}

ServeRuntime::ServeRuntime(const ServeOptions& options)
    : options_(options),
      roster_(options.arrivals.EffectiveTenants()),
      brownout_(options.brownout),
      budgets_(options.budget, RosterWeights(roster_)),
      stress_(options.stress),
      sketch_(options.sketch),
      recorder_(options.sample_period) {
  NU_EXPECTS(options_.miss_window > 0.0);
  NU_EXPECTS(options_.stress_window > 0.0);
  NU_EXPECTS(options_.ect_ewma_alpha > 0.0 && options_.ect_ewma_alpha <= 1.0);
  accountant_.SetTenants(RosterNames(roster_));
}

int ServeRuntime::PriorityOf(const update::UpdateEvent& event) const {
  const TenantId tenant = event.tenant();
  if (!tenant.valid() || tenant.value() >= roster_.size()) return 0;
  return roster_[tenant.value()].priority;
}

void ServeRuntime::OnArrival(const update::UpdateEvent& event) {
  ++arrivals_;
  const TenantId tenant = event.tenant();
  if (tenant.valid() && tenant.value() < roster_.size()) {
    ++accountant_.Of(tenant).arrivals;
  }
}

RejectReason ServeRuntime::Admit(const update::UpdateEvent& event,
                                 Seconds now) {
  const TenantId tenant = event.tenant();
  const bool tracked = tenant.valid() && tenant.value() < roster_.size();

  // Gate order matters: the priority and deadline gates are side-effect
  // free, so they run before the budget gate (which spends a token on
  // success). A shed tenant's bucket keeps refilling while it is shed.
  if (brownout_.state() == HealthState::kShedding &&
      PriorityOf(event) < options_.brownout.shed_min_priority) {
    ++rejected_priority_;
    if (tracked) ++accountant_.Of(tenant).rejected_priority;
    return RejectReason::kPriority;
  }
  if (options_.deadline_aware_admission && event.HasDeadline() &&
      ewma_ect_ > 0.0 &&
      now + options_.deadline_slack_factor * ewma_ect_ > event.deadline()) {
    ++rejected_deadline_;
    if (tracked) ++accountant_.Of(tenant).rejected_deadline;
    return RejectReason::kDeadline;
  }
  if (!budgets_.Admit(tenant, now)) {
    ++rejected_budget_;
    if (tracked) ++accountant_.Of(tenant).rejected_budget;
    return RejectReason::kBudget;
  }
  ++admitted_;
  if (tracked) ++accountant_.Of(tenant).admitted;
  return RejectReason::kNone;
}

void ServeRuntime::OnShedQueue(const update::UpdateEvent& event) {
  ++shed_queue_;
  const TenantId tenant = event.tenant();
  if (tenant.valid() && tenant.value() < roster_.size()) {
    ++accountant_.Of(tenant).shed_queue;
  }
}

void ServeRuntime::OnQuarantined(const update::UpdateEvent& event) {
  ++quarantined_;
  const TenantId tenant = event.tenant();
  if (tenant.valid() && tenant.value() < roster_.size()) {
    ++accountant_.Of(tenant).quarantined;
  }
}

void ServeRuntime::OnCompletion(const update::UpdateEvent& event,
                                Seconds completion) {
  const Seconds ect = completion - event.arrival_time();
  sketch_.Add(ect);
  ++completed_;
  ewma_ect_ = ewma_ect_ <= 0.0
                  ? ect
                  : (1.0 - options_.ect_ewma_alpha) * ewma_ect_ +
                        options_.ect_ewma_alpha * ect;
  const bool missed = event.HasDeadline() && completion > event.deadline();
  if (missed) ++slo_misses_;
  miss_window_.emplace_back(completion, missed);
  const TenantId tenant = event.tenant();
  if (tenant.valid() && tenant.value() < roster_.size()) {
    metrics::TenantCounters& counters = accountant_.Of(tenant);
    ++counters.completed;
    counters.ect.Add(ect);
    if (missed) ++counters.slo_misses;
  }
}

double ServeRuntime::MissRate() const {
  if (miss_window_.empty()) return 0.0;
  std::size_t missed = 0;
  for (const auto& [time, miss] : miss_window_) {
    if (miss) ++missed;
  }
  return static_cast<double>(missed) /
         static_cast<double>(miss_window_.size());
}

void ServeRuntime::Tick(const net::Network& network, Seconds now,
                        std::size_t queue_length, std::size_t active) {
  last_queue_length_ = queue_length;
  last_active_ = active;

  // Fabric stress: fold fresh sustained-overload reports into the sliding
  // window; the signal is the number of reports still inside it.
  for (LinkId link : stress_.Observe(network, now)) {
    (void)link;
    stress_reports_.push_back(now);
  }
  ObserveAndLog(now, queue_length);
}

void ServeRuntime::ObserveAndLog(Seconds now, std::size_t queue_length) {
  while (!stress_reports_.empty() &&
         stress_reports_.front() < now - options_.stress_window) {
    stress_reports_.pop_front();
  }
  while (!miss_window_.empty() &&
         miss_window_.front().first < now - options_.miss_window) {
    miss_window_.pop_front();
  }

  const BrownoutSignals signals{.queue_length = queue_length,
                                .miss_rate = MissRate(),
                                .stressed_links = stress_reports_.size()};
  const std::size_t transitions_before = brownout_.transitions().size();
  (void)brownout_.Observe(now, signals);
  for (std::size_t i = transitions_before; i < brownout_.transitions().size();
       ++i) {
    const BrownoutTransition& t = brownout_.transitions()[i];
    EmitRow({.time = t.time,
             .kind = RowKind::kTransition,
             .from = t.from,
             .to = t.to});
  }
  while (recorder_.SampleDue(now)) {
    EmitRow({.time = recorder_.next_sample()});
    recorder_.Advance();
  }
}

void ServeRuntime::Finish(Seconds now, std::size_t queue_length,
                          std::size_t active) {
  last_queue_length_ = queue_length;
  last_active_ = active;
  // Quiet cool-down: the stream is over and the queue has drained, but the
  // controller may still be latched high (the drain itself pushes fresh
  // stress reports into the window). Keep observing the idle fabric on a
  // fixed cadence — no new reports arrive, so the windows age out and the
  // exit hysteresis walks the ladder back down one latched level at a time.
  if (options_.cooldown_tick > 0.0) {
    const Seconds deadline = now + options_.max_cooldown;
    while (brownout_.state() != HealthState::kHealthy && now < deadline) {
      now += options_.cooldown_tick;
      ObserveAndLog(now, queue_length);
    }
  }
  EmitRow({.time = now, .kind = RowKind::kFinal});
}

void ServeRuntime::EmitRow(TimeseriesRow row) {
  row.health = brownout_.state();
  row.pressure = brownout_.last_pressure();
  row.counts = {last_queue_length_, last_active_,       arrivals_,
                admitted_,          rejected_budget_,   rejected_deadline_,
                rejected_priority_, shed_queue_,        completed_,
                slo_misses_};
  row.miss_rate = MissRate();
  if (!sketch_.empty()) sketch_.Quantiles(kEctQuantiles, row.ect);
  recorder_.Append(row);
}

ServeSummary ServeRuntime::BuildSummary() const {
  ServeSummary summary;
  summary.enabled = true;
  summary.arrivals = arrivals_;
  summary.admitted = admitted_;
  summary.completed = completed_;
  summary.rejected_budget = rejected_budget_;
  summary.rejected_deadline = rejected_deadline_;
  summary.rejected_priority = rejected_priority_;
  summary.shed_queue = shed_queue_;
  summary.quarantined = quarantined_;
  summary.slo_misses = slo_misses_;
  if (!sketch_.empty()) {
    std::array<double, kEctQuantiles.size()> ect{};
    sketch_.Quantiles(kEctQuantiles, ect);
    summary.ect_p50 = ect[0];
    summary.ect_p90 = ect[1];
    summary.ect_p99 = ect[2];
    summary.ect_p999 = ect[3];
  }
  summary.jain_ect = accountant_.JainEct();
  summary.jain_admission = accountant_.JainAdmission();
  summary.transitions = brownout_.transitions().size();
  for (std::size_t i = 0; i < 4; ++i) {
    summary.time_in_state[i] = brownout_.time_in_state()[i];
  }
  summary.final_state = brownout_.state();
  bool reached_degraded = false;
  for (const BrownoutTransition& t : brownout_.transitions()) {
    if (t.to == HealthState::kShedding) summary.reached_shedding = true;
    if (static_cast<int>(t.to) >= 1) reached_degraded = true;
  }
  summary.recovered_healthy =
      reached_degraded && brownout_.state() == HealthState::kHealthy;
  return summary;
}

std::string ServeRuntime::TimeseriesCsv() const { return recorder_.ToCsv(); }

std::string ServeRuntime::TenantReportCsv() const {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"tenant", "weight", "priority", "arrivals", "admitted",
                   "completed", "rejected_budget", "rejected_deadline",
                   "rejected_priority", "shed_queue", "quarantined",
                   "slo_misses", "ect_mean", "ect_p99", "jain_ect",
                   "jain_admission"});
  for (std::size_t i = 0; i < accountant_.tenants().size(); ++i) {
    const metrics::TenantCounters& t = accountant_.tenants()[i];
    writer.WriteRow({
        t.name,
        FormatDouble(roster_[i].weight, 3),
        std::to_string(roster_[i].priority),
        std::to_string(t.arrivals),
        std::to_string(t.admitted),
        std::to_string(t.completed),
        std::to_string(t.rejected_budget),
        std::to_string(t.rejected_deadline),
        std::to_string(t.rejected_priority),
        std::to_string(t.shed_queue),
        std::to_string(t.quarantined),
        std::to_string(t.slo_misses),
        FormatDouble(t.ect.empty() ? 0.0 : t.ect.mean(), 4),
        FormatDouble(t.ect.empty() ? 0.0 : t.ect.Percentile(0.99), 4),
        "",
        "",
    });
  }
  writer.WriteRow({"all", "", "", std::to_string(arrivals_),
                   std::to_string(admitted_), std::to_string(completed_),
                   std::to_string(rejected_budget_),
                   std::to_string(rejected_deadline_),
                   std::to_string(rejected_priority_),
                   std::to_string(shed_queue_), std::to_string(quarantined_),
                   std::to_string(slo_misses_),
                   FormatDouble(sketch_.empty() ? 0.0 : sketch_.mean(), 4),
                   FormatDouble(sketch_.empty() ? 0.0 : sketch_.Quantile(0.99),
                                4),
                   FormatDouble(accountant_.JainEct(), 4),
                   FormatDouble(accountant_.JainAdmission(), 4)});
  return out.str();
}

template <typename Ar, typename Self>
void ServeRuntime::Section(Ar& ar, Self& self) {
  ar.Part(self.brownout_, self.budgets_, self.stress_, self.accountant_,
          self.sketch_, self.recorder_);
  ar.U64(self.arrivals_, self.admitted_, self.completed_,
         self.rejected_budget_, self.rejected_deadline_,
         self.rejected_priority_, self.shed_queue_, self.quarantined_,
         self.slo_misses_);
  ar.F64(self.ewma_ect_);
  ar.Seq(self.miss_window_, [](Ar& a, auto& completion) {
    a.F64(completion.first);
    a.Bool(completion.second);
  });
  ar.Seq(self.stress_reports_, [](Ar& a, auto& t) { a.F64(t); });
  ar.U64(self.last_queue_length_, self.last_active_);
}

void ServeRuntime::SaveState(BinWriter& w) const { Section(w, *this); }
void ServeRuntime::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::serve
