#include "guard/tenant_budget.h"

#include <algorithm>

#include "common/check.h"

namespace nu::guard {

void TokenBucket::Refill(Seconds now) {
  if (now <= last_refill_) return;
  tokens_ = std::min(burst_, tokens_ + rate_ * (now - last_refill_));
  last_refill_ = now;
}

bool TokenBucket::TryTake(Seconds now) {
  Refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::TokensAt(Seconds now) const {
  if (now <= last_refill_) return tokens_;
  return std::min(burst_, tokens_ + rate_ * (now - last_refill_));
}

template <typename Ar, typename Self>
void TokenBucket::Section(Ar& ar, Self& self) {
  ar.F64(self.rate_, self.burst_, self.tokens_, self.last_refill_);
}

void TokenBucket::SaveState(BinWriter& w) const { Section(w, *this); }
void TokenBucket::LoadState(BinReader& r) { Section(r, *this); }

TenantBudgets::TenantBudgets(const TenantBudgetConfig& config,
                             const std::vector<double>& weights)
    : config_(config) {
  buckets_.reserve(weights.size());
  for (double weight : weights) {
    NU_EXPECTS(weight > 0.0);
    buckets_.emplace_back(config.default_rate * weight,
                          config.default_burst * std::max(weight, 1.0));
  }
}

bool TenantBudgets::Admit(TenantId tenant, Seconds now) {
  if (!config_.enabled) return true;
  if (!tenant.valid() || tenant.value() >= buckets_.size()) return true;
  return buckets_[tenant.value()].TryTake(now);
}

const TokenBucket& TenantBudgets::bucket(TenantId tenant) const {
  NU_EXPECTS(tenant.valid() && tenant.value() < buckets_.size());
  return buckets_[tenant.value()];
}

template <typename Ar, typename Self>
void TenantBudgets::Section(Ar& ar, Self& self) {
  ar.Rows(self.buckets_, [](Ar& a, auto& bucket) { a.Part(bucket); },
         "tenant budget count disagrees with the roster");
}

void TenantBudgets::SaveState(BinWriter& w) const { Section(w, *this); }
void TenantBudgets::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::guard
