#include "serve/arrivals.h"

#include <cmath>
#include <numbers>

#include "common/check.h"
#include "common/rng_streams.h"
#include "common/text.h"

namespace nu::serve {

const char* ToString(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kBursty:
      return "bursty";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
  }
  return "?";
}

ArrivalProcess ParseArrivalProcess(const std::string& name) {
  if (name == "poisson") return ArrivalProcess::kPoisson;
  if (name == "bursty") return ArrivalProcess::kBursty;
  if (name == "diurnal") return ArrivalProcess::kDiurnal;
  throw CorruptInput("unknown arrival process '" + name + "'");
}

std::vector<TenantSpec> ArrivalConfig::EffectiveTenants() const {
  if (!tenants.empty()) return tenants;
  return {TenantSpec{.name = "tenant0"}};
}

double IntensityFactor(const ArrivalConfig& config, Seconds t) {
  switch (config.process) {
    case ArrivalProcess::kPoisson:
      return 1.0;
    case ArrivalProcess::kBursty: {
      // On/off factors chosen so the time-average factor is exactly 1:
      //   f * m * off + (1 - f) * off = 1.
      const double f = config.burst_fraction;
      const double m = config.burst_multiplier;
      const double off = 1.0 / (f * m + (1.0 - f));
      const double phase = std::fmod(t, config.burst_period);
      return phase < f * config.burst_period ? m * off : off;
    }
    case ArrivalProcess::kDiurnal:
      return 1.0 + config.diurnal_amplitude *
                       std::sin(2.0 * std::numbers::pi * t /
                                config.diurnal_period);
  }
  return 1.0;
}

double PeakIntensityFactor(const ArrivalConfig& config) {
  switch (config.process) {
    case ArrivalProcess::kPoisson:
      return 1.0;
    case ArrivalProcess::kBursty: {
      const double f = config.burst_fraction;
      const double m = config.burst_multiplier;
      return m / (f * m + (1.0 - f));
    }
    case ArrivalProcess::kDiurnal:
      return 1.0 + config.diurnal_amplitude;
  }
  return 1.0;
}

std::vector<update::UpdateEvent> GenerateArrivals(
    const ArrivalConfig& config, trace::TrafficGenerator& flow_source,
    std::uint64_t base_seed) {
  NU_EXPECTS(config.rate > 0.0);
  NU_EXPECTS(config.duration > 0.0);
  NU_EXPECTS(config.burst_fraction > 0.0 && config.burst_fraction < 1.0);
  NU_EXPECTS(config.burst_multiplier >= 1.0);
  NU_EXPECTS(config.diurnal_amplitude >= 0.0 &&
             config.diurnal_amplitude < 1.0);

  const std::vector<TenantSpec> tenants = config.EffectiveTenants();
  double total_weight = 0.0;
  for (const TenantSpec& t : tenants) {
    NU_EXPECTS(t.weight > 0.0);
    total_weight += t.weight;
  }

  Rng arrival_rng(StreamSeed(base_seed, RngStream::kServeArrivals));
  update::EventGenerator generator(
      flow_source, Rng(StreamSeed(base_seed, RngStream::kServeFlows)));
  const update::SyntheticEventConfig event_config{
      .min_flows = config.min_flows,
      .max_flows = config.max_flows,
      .kind = update::EventKind::kGeneric};

  // Poisson thinning: draw a homogeneous process at the peak rate, accept
  // each point with probability intensity(t) / peak. The thinning coin is
  // drawn for EVERY candidate point (even under kPoisson, where it always
  // accepts) so all three processes consume the arrival stream identically
  // per candidate — switching the process shape never desynchronizes the
  // tenant draws that follow.
  const double peak_rate = config.rate * PeakIntensityFactor(config);
  std::vector<update::UpdateEvent> events;
  Seconds t = 0.0;
  while (true) {
    t += arrival_rng.Exponential(peak_rate);
    if (t >= config.duration) break;
    const double accept =
        config.rate * IntensityFactor(config, t) / peak_rate;
    if (arrival_rng.Uniform01() >= accept) continue;

    // Weighted tenant draw (cumulative walk, roster order).
    const double pick = arrival_rng.Uniform01() * total_weight;
    std::size_t tenant_index = tenants.size() - 1;
    double cumulative = 0.0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      cumulative += tenants[i].weight;
      if (pick < cumulative) {
        tenant_index = i;
        break;
      }
    }

    update::UpdateEvent event = generator.Next(t, event_config);
    event.SetTenant(TenantId(static_cast<TenantId::rep_type>(tenant_index)));
    if (tenants[tenant_index].slo_deadline > 0.0) {
      event.SetDeadline(t + tenants[tenant_index].slo_deadline);
    }
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace nu::serve
