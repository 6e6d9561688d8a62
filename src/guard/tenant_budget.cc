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

void TokenBucket::SaveState(BinWriter& w) const {
  w.F64(rate_);
  w.F64(burst_);
  w.F64(tokens_);
  w.F64(last_refill_);
}

void TokenBucket::LoadState(BinReader& r) {
  rate_ = r.F64();
  burst_ = r.F64();
  tokens_ = r.F64();
  last_refill_ = r.F64();
}

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

void TenantBudgets::SaveState(BinWriter& w) const {
  w.Size(buckets_.size());
  for (const TokenBucket& b : buckets_) b.SaveState(w);
}

void TenantBudgets::LoadState(BinReader& r) {
  if (r.Size() != buckets_.size()) {
    throw CorruptInput("tenant budget count disagrees with the roster");
  }
  for (TokenBucket& b : buckets_) b.LoadState(r);
}

}  // namespace nu::guard
