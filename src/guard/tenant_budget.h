// Per-tenant admission budgets for the online-serving layer.
//
// The overload guard (overload.h) protects the QUEUE — it bounds total
// depth regardless of who is filling it. Under multi-tenant serving that is
// not enough: one tenant blasting events at 10x its share starves everyone
// behind the shared queue bound. Token buckets give each tenant an
// admission RATE: a tenant's bucket refills continuously in virtual time at
// `rate` events/sec up to a `burst` cap, and each admission spends one
// token. A tenant that stays under its rate is never throttled; a tenant
// exceeding it is rejected at admission (observable, counted per tenant)
// while other tenants' buckets are untouched.
//
// Everything is virtual-time driven and drawn from no Rng, so budgets are
// bit-deterministic and their state snapshots with the run.
#pragma once

#include <cstddef>
#include <vector>

#include "common/binio.h"
#include "common/types.h"

namespace nu::guard {

struct TenantBudgetConfig {
  /// Master switch; disabled budgets admit everything and keep no state.
  bool enabled = false;
  /// Baseline refill rate (events/sec of virtual time) for a weight-1.0
  /// tenant; tenant i refills at default_rate * weight_i.
  double default_rate = 1.0;
  /// Bucket capacity (burst tolerance) for a weight-1.0 tenant, in events.
  double default_burst = 4.0;
};

/// One tenant's token bucket. Refill is computed lazily on access from the
/// elapsed virtual time, so no per-tick work is needed.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate, double burst)
      : rate_(rate), burst_(burst), tokens_(burst) {}

  /// Spends one token at virtual time `now` if available. False = reject.
  bool TryTake(Seconds now);

  /// Tokens available at `now` (after lazy refill; does not spend).
  [[nodiscard]] double TokensAt(Seconds now) const;

  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] double burst() const { return burst_; }

  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

 private:
  void Refill(Seconds now);

  double rate_ = 1.0;
  double burst_ = 4.0;
  double tokens_ = 4.0;
  Seconds last_refill_ = 0.0;
};

/// The per-tenant bucket array (index = TenantId value). Deterministic:
/// admission outcomes depend only on (config, weights, call sequence).
class TenantBudgets {
 public:
  TenantBudgets() = default;

  /// Declares the tenant roster; tenant i's bucket refills at
  /// config.default_rate * weights[i] and holds config.default_burst *
  /// max(weights[i], 1.0) tokens (heavier tenants get both more rate and
  /// more burst headroom).
  TenantBudgets(const TenantBudgetConfig& config,
                const std::vector<double>& weights);

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] std::size_t tenant_count() const { return buckets_.size(); }

  /// Admission check for one event of `tenant` at `now`. Always true when
  /// budgets are disabled or the tenant is untagged/out of roster.
  bool Admit(TenantId tenant, Seconds now);

  [[nodiscard]] const TokenBucket& bucket(TenantId tenant) const;

  void SaveState(BinWriter& w) const;
  /// Throws CorruptInput when the stored bucket count is not the roster's.
  void LoadState(BinReader& r);

 private:
  TenantBudgetConfig config_;
  std::vector<TokenBucket> buckets_;
};

}  // namespace nu::guard
