#include "metrics/tenant.h"

#include "common/check.h"
#include "metrics/fairness.h"

namespace nu::metrics {

void TenantAccountant::SetTenants(std::vector<std::string> names) {
  tenants_.clear();
  tenants_.reserve(names.size());
  for (std::string& name : names) {
    TenantCounters counters;
    counters.name = std::move(name);
    tenants_.push_back(std::move(counters));
  }
}

TenantCounters& TenantAccountant::Of(TenantId tenant) {
  NU_EXPECTS(tenant.valid() && tenant.value() < tenants_.size());
  return tenants_[tenant.value()];
}

const TenantCounters& TenantAccountant::Of(TenantId tenant) const {
  NU_EXPECTS(tenant.valid() && tenant.value() < tenants_.size());
  return tenants_[tenant.value()];
}

double TenantAccountant::JainEct() const {
  std::vector<double> means;
  means.reserve(tenants_.size());
  for (const TenantCounters& t : tenants_) {
    if (!t.ect.empty()) means.push_back(t.ect.mean());
  }
  return JainIndex(means);
}

double TenantAccountant::JainAdmission() const {
  std::vector<double> fractions;
  fractions.reserve(tenants_.size());
  for (const TenantCounters& t : tenants_) {
    if (t.arrivals > 0) {
      fractions.push_back(static_cast<double>(t.admitted) /
                          static_cast<double>(t.arrivals));
    }
  }
  return JainIndex(fractions);
}

void TenantAccountant::SaveState(BinWriter& w) const {
  w.Size(tenants_.size());
  for (const TenantCounters& t : tenants_) {
    w.Str(t.name);
    w.U64(t.arrivals);
    w.U64(t.admitted);
    w.U64(t.completed);
    w.U64(t.rejected_budget);
    w.U64(t.rejected_deadline);
    w.U64(t.rejected_priority);
    w.U64(t.shed_queue);
    w.U64(t.quarantined);
    w.U64(t.slo_misses);
    w.Size(t.ect.count());
    for (double v : t.ect.values()) w.F64(v);
  }
}

void TenantAccountant::LoadState(BinReader& r) {
  const std::size_t n = r.Size();
  if (n != tenants_.size()) {
    throw CorruptInput("tenant ledger count disagrees with the roster");
  }
  // Read into a local ledger so a payload that throws partway leaves the
  // roster-sized ledger in place for the fallback to an older snapshot.
  std::vector<TenantCounters> loaded(n);
  for (TenantCounters& t : loaded) {
    t.name = r.Str();
    t.arrivals = r.U64();
    t.admitted = r.U64();
    t.completed = r.U64();
    t.rejected_budget = r.U64();
    t.rejected_deadline = r.U64();
    t.rejected_priority = r.U64();
    t.shed_queue = r.U64();
    t.quarantined = r.U64();
    t.slo_misses = r.U64();
    const std::size_t samples = r.Size();
    for (std::size_t s = 0; s < samples; ++s) t.ect.Add(r.F64());
  }
  tenants_ = std::move(loaded);
}

}  // namespace nu::metrics
