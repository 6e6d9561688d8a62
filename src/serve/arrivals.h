// Open-loop arrival processes for the online-serving layer.
//
// Offline runs drain a fixed event queue; serving means absorbing an
// arrival STREAM whose rate does not care how fast the controller drains —
// the open-loop model that makes overload a real regime instead of a
// transient. Three processes are provided, all normalized so the
// time-average rate equals `rate` (so an offered-load sweep multiplies one
// number):
//
//   * kPoisson — homogeneous Poisson (exponential gaps).
//   * kBursty  — on/off modulated Poisson: within each `burst_period`, the
//                first `burst_fraction` is a burst at `burst_multiplier` x
//                the off-rate. Models synchronized maintenance waves.
//   * kDiurnal — sinusoidal intensity 1 + amplitude * sin(2*pi*t / period).
//                Models the day/night load curve, compressed to sim time.
//
// Non-homogeneous processes are generated by Poisson thinning against the
// peak intensity, so every draw comes from one dedicated Rng stream
// (RngStream::kServeArrivals) — adding or reshaping arrivals can never
// perturb the scheduler, churn, or fault streams of a fixed-seed run.
// Each event is tagged with a tenant (weighted draw) and a soft deadline
// (arrival + the tenant's SLO).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/generator.h"
#include "update/event_generator.h"
#include "update/update_event.h"

namespace nu::serve {

enum class ArrivalProcess : std::uint8_t {
  kPoisson,
  kBursty,
  kDiurnal,
};

[[nodiscard]] const char* ToString(ArrivalProcess process);

/// Parses "poisson" | "bursty" | "diurnal"; throws CorruptInput otherwise.
[[nodiscard]] ArrivalProcess ParseArrivalProcess(const std::string& name);

/// One tenant of the serving layer. Index in the roster is the TenantId.
struct TenantSpec {
  std::string name;
  /// Relative traffic share (weighted tenant draw per arrival) and budget
  /// multiplier. > 0.
  double weight = 1.0;
  /// Shedding order: when the brownout controller reaches Shedding, tenants
  /// with priority < BrownoutConfig::shed_min_priority are rejected at
  /// admission. Higher = more important.
  int priority = 1;
  /// Soft SLO: the event's deadline is arrival + slo_deadline seconds.
  /// 0 disables the deadline for this tenant.
  Seconds slo_deadline = 60.0;
};

struct ArrivalConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Time-average arrival rate (events per second of virtual time).
  double rate = 0.5;
  /// Arrival window: events arrive in [0, duration).
  Seconds duration = 60.0;
  /// kBursty shape.
  Seconds burst_period = 10.0;
  double burst_fraction = 0.25;
  double burst_multiplier = 4.0;
  /// kDiurnal shape: intensity 1 + amplitude * sin(2*pi*t / diurnal_period),
  /// amplitude in [0, 1).
  double diurnal_amplitude = 0.8;
  Seconds diurnal_period = 60.0;
  /// Tenant roster; empty = one default tenant ("tenant0", weight 1).
  std::vector<TenantSpec> tenants;
  /// Flows per event (uniform draw, like SyntheticEventConfig).
  std::size_t min_flows = 10;
  std::size_t max_flows = 100;

  /// The roster with the default tenant substituted when empty.
  [[nodiscard]] std::vector<TenantSpec> EffectiveTenants() const;
};

/// Relative intensity factor of `process` at time `t` (time-average 1.0).
[[nodiscard]] double IntensityFactor(const ArrivalConfig& config, Seconds t);

/// Peak intensity factor over the whole window (thinning envelope).
[[nodiscard]] double PeakIntensityFactor(const ArrivalConfig& config);

/// Generates the arrival stream: update events in nondecreasing arrival
/// order, each tagged with a tenant and (if its tenant has an SLO) an
/// absolute deadline. Arrival times, tenant draws, and acceptance thinning
/// come from RngStream::kServeArrivals of `base_seed`; event flows come
/// from RngStream::kServeFlows via `flow_source`. Deterministic in
/// (config, base_seed, flow_source state).
[[nodiscard]] std::vector<update::UpdateEvent> GenerateArrivals(
    const ArrivalConfig& config, trace::TrafficGenerator& flow_source,
    std::uint64_t base_seed);

}  // namespace nu::serve
