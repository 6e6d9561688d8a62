// Per-tenant accounting for the online-serving layer: every served update
// event is tagged with a TenantId, and this module keeps the per-tenant
// ledgers the serve-mode report is built from — admission outcomes, SLO
// misses, and ECT distributions — plus Jain's fairness index across tenants
// (the production counterpart of the paper's event-level fairness story).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/stats.h"
#include "common/types.h"

namespace nu::metrics {

/// One tenant's ledger. Every event the arrival process emits for a tenant
/// lands in exactly one of: admitted (then completed / shed_queue /
/// quarantined / still in flight at run end) or rejected_* (never entered
/// the queue).
struct TenantCounters {
  std::string name;
  /// Events the arrival process emitted for this tenant.
  std::size_t arrivals = 0;
  /// Events that passed serve admission (budget/deadline/priority gates).
  std::size_t admitted = 0;
  std::size_t completed = 0;
  /// Rejected at admission: token-bucket budget exhausted.
  std::size_t rejected_budget = 0;
  /// Rejected at admission: predicted to miss its deadline anyway.
  std::size_t rejected_deadline = 0;
  /// Rejected at admission: brownout Shedding floor above this tenant's
  /// priority.
  std::size_t rejected_priority = 0;
  /// Admitted but later shed from a full queue (overload guard victim).
  std::size_t shed_queue = 0;
  /// Admitted but quarantined as poison by the watchdog.
  std::size_t quarantined = 0;
  /// Completions whose ECT exceeded the event's soft deadline.
  std::size_t slo_misses = 0;
  /// ECT samples of this tenant's completed events.
  Samples ect;
};

/// The tenant ledger collection. Tenants are dense (index = TenantId value)
/// and declared up front, so lookups are O(1) and iteration order is the
/// declaration order — deterministic output.
class TenantAccountant {
 public:
  TenantAccountant() = default;

  /// Declares the tenant roster (index = TenantId value). Resets all
  /// counters.
  void SetTenants(std::vector<std::string> names);

  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }
  [[nodiscard]] const std::vector<TenantCounters>& tenants() const {
    return tenants_;
  }

  TenantCounters& Of(TenantId tenant);
  [[nodiscard]] const TenantCounters& Of(TenantId tenant) const;

  /// Jain's index over per-tenant mean ECTs (completed events only; tenants
  /// with no completions are skipped). 1 = all tenants see equal latency.
  [[nodiscard]] double JainEct() const;

  /// Jain's index over per-tenant admitted fractions (admitted / arrivals;
  /// tenants with no arrivals are skipped). 1 = admission treats all
  /// tenants alike.
  [[nodiscard]] double JainAdmission() const;

  // Snapshot support: full ledger state, ECT samples in insertion order.
  // LoadState throws CorruptInput when the stored tenant count is not the
  // roster's (SetTenants runs first); a payload that throws leaves the
  // ledger as it was.
  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);

  std::vector<TenantCounters> tenants_;
};

}  // namespace nu::metrics
