// ServeRuntime: the online-serving layer's per-run state, owned by the
// simulator when SimConfig::serve.enabled. It glues the pieces of the
// brownout loop together:
//
//   admission   — per-tenant token buckets (guard::TenantBudgets),
//                 deadline-aware rejection, and the Shedding-state priority
//                 floor; every outcome is counted per tenant.
//   health      — a BrownoutController fed queue depth, the sliding-window
//                 deadline-miss rate, and fabric stress from its own
//                 guard::LinkStressMonitor; its level drives the
//                 DegradableScheduler, optional-audit suppression, and
//                 priority shedding.
//   telemetry   — admitted-event ECT percentiles via a deterministic
//                 PercentileSketch, per-tenant ledgers + Jain's indexes
//                 (metrics::TenantAccountant), and the periodic/transition
//                 timeseries (TimeseriesRecorder).
//
// The runtime draws from no Rng and is driven purely by the simulator's
// virtual-time call sequence, so serve-mode runs stay bit-reproducible; its
// full state (including the typed timeseries rows) snapshots with the run
// as the payload's serve section.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/types.h"
#include "guard/overload.h"
#include "guard/tenant_budget.h"
#include "metrics/sketch.h"
#include "metrics/tenant.h"
#include "net/network.h"
#include "serve/arrivals.h"
#include "serve/brownout.h"
#include "serve/timeseries.h"
#include "update/update_event.h"

namespace nu::serve {

/// Why serve admission rejected an event (kNone = admitted).
enum class RejectReason : std::uint8_t {
  kNone,
  kBudget,
  kDeadline,
  kPriority,
};

[[nodiscard]] const char* ToString(RejectReason reason);

struct ServeOptions {
  /// Master switch. Disabled costs nothing: the simulator keeps no serve
  /// state, draws nothing, and snapshots gain no serve section.
  bool enabled = false;
  /// Arrival-process shape (the tenant roster lives here; the runtime reads
  /// arrivals.EffectiveTenants() for names, weights, priorities, SLOs).
  ArrivalConfig arrivals;
  BrownoutConfig brownout;
  guard::TenantBudgetConfig budget;
  /// Reject events predicted to miss their deadline anyway: an event with a
  /// deadline is rejected when now + slack * EWMA(ECT) already exceeds it.
  /// Cheap, deterministic, and conservative at slack < 1.
  bool deadline_aware_admission = true;
  double deadline_slack_factor = 0.5;
  /// EWMA smoothing for the completed-ECT estimate.
  double ect_ewma_alpha = 0.2;
  /// Cadence of timeseries sample rows (virtual seconds).
  Seconds sample_period = 1.0;
  /// Sliding window for the deadline-miss rate signal.
  Seconds miss_window = 10.0;
  /// Sliding window over LinkStressMonitor reports for the stress signal.
  Seconds stress_window = 5.0;
  /// Fabric-stress detection for the brownout signal (independent of the
  /// cascade engine's monitor).
  guard::LinkStressMonitor::Options stress{.utilization_threshold = 0.95,
                                           .hold_time = 0.5};
  /// Quiet cool-down after the stream drains: the controller keeps
  /// observing the idle fabric on this cadence until it relaxes back to
  /// kHealthy or `max_cooldown` virtual seconds elapse. Windowed signals
  /// (stress reports, SLO misses) age out with no new input, so the exit
  /// hysteresis can walk the ladder down — the recovery half of the
  /// brownout story stays observable even when the last completion lands
  /// exactly at end of stream. 0 disables the cool-down.
  Seconds cooldown_tick = 0.5;
  Seconds max_cooldown = 60.0;
  metrics::PercentileSketch::Options sketch;
};

/// Serve-mode run outcome, folded into sim::SimResult.
struct ServeSummary {
  bool enabled = false;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::size_t rejected_budget = 0;
  std::size_t rejected_deadline = 0;
  std::size_t rejected_priority = 0;
  /// Admitted events later shed from a full queue (overload guard victims).
  std::size_t shed_queue = 0;
  std::size_t quarantined = 0;
  std::size_t slo_misses = 0;
  double ect_p50 = 0.0;
  double ect_p90 = 0.0;
  double ect_p99 = 0.0;
  double ect_p999 = 0.0;
  double jain_ect = 1.0;
  double jain_admission = 1.0;
  std::size_t transitions = 0;
  std::array<Seconds, 4> time_in_state{};
  HealthState final_state = HealthState::kHealthy;
  bool reached_shedding = false;
  /// Reached at least kDegraded and ended the run back at kHealthy — the
  /// recovery half of the hysteresis story.
  bool recovered_healthy = false;
};

class ServeRuntime {
 public:
  explicit ServeRuntime(const ServeOptions& options);

  // --- Admission (called by the simulator's admit path) -------------------

  /// The arrival process emitted `event` (before any admission gate).
  void OnArrival(const update::UpdateEvent& event);

  /// Runs the serve admission gates for `event` at `now`. kNone = admitted
  /// (counted); anything else = rejected (counted per tenant + reason) and
  /// the caller must shed the event.
  RejectReason Admit(const update::UpdateEvent& event, Seconds now);

  /// An ADMITTED event was shed from the full queue by the overload guard.
  void OnShedQueue(const update::UpdateEvent& event);

  /// An admitted event was quarantined as poison by the watchdog.
  void OnQuarantined(const update::UpdateEvent& event);

  /// An admitted event completed at `completion` (virtual time). Feeds the
  /// ECT sketch, the tenant ledger, the SLO-miss window, and the EWMA.
  void OnCompletion(const update::UpdateEvent& event, Seconds completion);

  // --- Health loop --------------------------------------------------------

  /// Observes pressure at `now` and advances the brownout state machine;
  /// emits due timeseries samples and any latched transition row.
  /// `queue_length` is the update-queue depth, `active` the number of
  /// events executing in the current round.
  void Tick(const net::Network& network, Seconds now,
            std::size_t queue_length, std::size_t active);

  /// Runs the quiet cool-down (idle observations until the controller is
  /// healthy again or the cap elapses) and emits the final timeseries
  /// sample at end of run.
  void Finish(Seconds now, std::size_t queue_length, std::size_t active);

  // --- Degradation ladder reads ------------------------------------------

  [[nodiscard]] HealthState state() const { return brownout_.state(); }
  [[nodiscard]] int DegradationLevel() const {
    return brownout_.DegradationLevel();
  }
  /// Level >= 2 (kOverloaded and above): cadence audits are suppressed;
  /// fault-triggered and final audits still run.
  [[nodiscard]] bool SuppressOptionalAudits() const {
    return DegradationLevel() >= 2;
  }

  // --- Results ------------------------------------------------------------

  [[nodiscard]] const BrownoutController& brownout() const {
    return brownout_;
  }
  [[nodiscard]] const metrics::TenantAccountant& accountant() const {
    return accountant_;
  }
  [[nodiscard]] const metrics::PercentileSketch& sketch() const {
    return sketch_;
  }
  [[nodiscard]] const TimeseriesRecorder& timeseries() const {
    return recorder_;
  }

  [[nodiscard]] ServeSummary BuildSummary() const;
  [[nodiscard]] std::string TimeseriesCsv() const;
  /// Per-tenant report CSV (one row per tenant + a "all" summary row with
  /// the Jain indexes).
  [[nodiscard]] std::string TenantReportCsv() const;

  // --- Snapshot support (payload format v4) ------------------------------
  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);
  [[nodiscard]] double MissRate() const;
  /// Ages the sliding windows to `now`, feeds one observation to the
  /// brownout controller, and emits transition + due sample rows.
  void ObserveAndLog(Seconds now, std::size_t queue_length);
  /// Fills `row` (time and kind set by the caller) from the current state
  /// and appends it to the timeseries.
  void EmitRow(TimeseriesRow row);
  [[nodiscard]] int PriorityOf(const update::UpdateEvent& event) const;

  ServeOptions options_;
  std::vector<TenantSpec> roster_;
  BrownoutController brownout_;
  guard::TenantBudgets budgets_;
  guard::LinkStressMonitor stress_;
  metrics::TenantAccountant accountant_;
  metrics::PercentileSketch sketch_;
  TimeseriesRecorder recorder_;

  std::size_t arrivals_ = 0;
  std::size_t admitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t rejected_budget_ = 0;
  std::size_t rejected_deadline_ = 0;
  std::size_t rejected_priority_ = 0;
  std::size_t shed_queue_ = 0;
  std::size_t quarantined_ = 0;
  std::size_t slo_misses_ = 0;
  /// EWMA of completed ECTs; 0 until the first completion.
  double ewma_ect_ = 0.0;
  /// Sliding completion window: (completion time, missed-deadline flag).
  std::deque<std::pair<Seconds, bool>> miss_window_;
  /// Times of recent LinkStressMonitor reports (stress signal window).
  std::deque<Seconds> stress_reports_;
  std::size_t last_queue_length_ = 0;
  std::size_t last_active_ = 0;
};

}  // namespace nu::serve
