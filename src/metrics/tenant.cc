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

template <typename Ar, typename Self>
void TenantAccountant::Section(Ar& ar, Self& self) {
  ar.Rows(
      self.tenants_,
      [](Ar& a, auto& t) {
        a.Str(t.name);
        a.U64(t.arrivals, t.admitted, t.completed, t.rejected_budget,
              t.rejected_deadline, t.rejected_priority, t.shed_queue,
              t.quarantined, t.slo_misses);
        a.Part(t.ect);
      },
      "tenant ledger count disagrees with the roster");
}

void TenantAccountant::SaveState(BinWriter& w) const { Section(w, *this); }
void TenantAccountant::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::metrics
