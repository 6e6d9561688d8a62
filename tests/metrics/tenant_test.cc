// Per-tenant ledgers and the Jain fairness indexes of the serve-mode report.
#include "metrics/tenant.h"

#include <gtest/gtest.h>

namespace nu::metrics {
namespace {

TenantAccountant TwoTenants() {
  TenantAccountant acc;
  acc.SetTenants({"premium", "besteffort"});
  return acc;
}

TEST(TenantAccountantTest, RosterAndLookup) {
  TenantAccountant acc = TwoTenants();
  ASSERT_EQ(acc.tenant_count(), 2u);
  EXPECT_EQ(acc.Of(TenantId{0}).name, "premium");
  EXPECT_EQ(acc.Of(TenantId{1}).name, "besteffort");
  acc.Of(TenantId{1}).arrivals = 3;
  EXPECT_EQ(acc.tenants()[1].arrivals, 3u);
}

TEST(TenantAccountantTest, JainEctEqualMeansOne) {
  TenantAccountant acc = TwoTenants();
  acc.Of(TenantId{0}).ect.Add(2.0);
  acc.Of(TenantId{1}).ect.Add(2.0);
  EXPECT_DOUBLE_EQ(acc.JainEct(), 1.0);
}

TEST(TenantAccountantTest, JainEctHandComputed) {
  // Means 1.0 and 3.0: J = (1+3)^2 / (2 * (1 + 9)) = 16/20 = 0.8.
  TenantAccountant acc = TwoTenants();
  acc.Of(TenantId{0}).ect.Add(1.0);
  acc.Of(TenantId{1}).ect.Add(3.0);
  EXPECT_DOUBLE_EQ(acc.JainEct(), 0.8);
}

TEST(TenantAccountantTest, JainSkipsTenantsWithoutCompletions) {
  TenantAccountant acc = TwoTenants();
  acc.Of(TenantId{0}).ect.Add(5.0);
  // besteffort has no completed events — a tenant that served nothing does
  // not drag the index down.
  EXPECT_DOUBLE_EQ(acc.JainEct(), 1.0);
}

TEST(TenantAccountantTest, JainAdmissionHandComputed) {
  TenantAccountant acc = TwoTenants();
  acc.Of(TenantId{0}).arrivals = 10;
  acc.Of(TenantId{0}).admitted = 10;  // fraction 1.0
  acc.Of(TenantId{1}).arrivals = 10;
  acc.Of(TenantId{1}).admitted = 5;  // fraction 0.5
  // J = (1.5)^2 / (2 * 1.25) = 2.25 / 2.5 = 0.9.
  EXPECT_DOUBLE_EQ(acc.JainAdmission(), 0.9);
}

TEST(TenantAccountantTest, SaveLoadRoundTrip) {
  TenantAccountant acc = TwoTenants();
  acc.Of(TenantId{0}).arrivals = 7;
  acc.Of(TenantId{0}).admitted = 6;
  acc.Of(TenantId{0}).completed = 5;
  acc.Of(TenantId{0}).slo_misses = 1;
  acc.Of(TenantId{0}).ect.Add(1.5);
  acc.Of(TenantId{0}).ect.Add(2.5);
  acc.Of(TenantId{1}).arrivals = 9;
  acc.Of(TenantId{1}).rejected_budget = 2;
  acc.Of(TenantId{1}).rejected_priority = 3;
  acc.Of(TenantId{1}).shed_queue = 1;
  acc.Of(TenantId{1}).quarantined = 1;

  BinWriter w;
  acc.SaveState(w);
  TenantAccountant restored = TwoTenants();
  BinReader r(w.buffer());
  restored.LoadState(r);

  ASSERT_EQ(restored.tenant_count(), 2u);
  EXPECT_EQ(restored.Of(TenantId{0}).name, "premium");
  EXPECT_EQ(restored.Of(TenantId{0}).arrivals, 7u);
  EXPECT_EQ(restored.Of(TenantId{0}).admitted, 6u);
  EXPECT_EQ(restored.Of(TenantId{0}).completed, 5u);
  EXPECT_EQ(restored.Of(TenantId{0}).slo_misses, 1u);
  EXPECT_EQ(restored.Of(TenantId{0}).ect.count(), 2u);
  EXPECT_DOUBLE_EQ(restored.Of(TenantId{0}).ect.mean(), 2.0);
  EXPECT_EQ(restored.Of(TenantId{1}).rejected_budget, 2u);
  EXPECT_EQ(restored.Of(TenantId{1}).rejected_priority, 3u);
  EXPECT_EQ(restored.Of(TenantId{1}).shed_queue, 1u);
  EXPECT_EQ(restored.Of(TenantId{1}).quarantined, 1u);
  EXPECT_DOUBLE_EQ(restored.JainEct(), acc.JainEct());
  EXPECT_DOUBLE_EQ(restored.JainAdmission(), acc.JainAdmission());
}

// A CRC-valid snapshot can still hold a ledger count other than the
// roster's. LoadState throws CorruptInput, the recovery path's cue to fall
// back to an older snapshot, instead of loading a ledger that a later event
// of a missing tenant indexes past.
TEST(TenantAccountantTest, LoadRejectsALedgerCountOffTheRoster) {
  TenantAccountant one;
  one.SetTenants({"premium"});
  BinWriter fewer;
  one.SaveState(fewer);
  TenantAccountant restored = TwoTenants();
  BinReader r(fewer.buffer());
  EXPECT_THROW(
      {
        restored.LoadState(r);
        ++restored.Of(TenantId{1}).arrivals;  // tenant 1's next event
      },
      CorruptInput);

  TenantAccountant three;
  three.SetTenants({"premium", "besteffort", "batch"});
  BinWriter more;
  three.SaveState(more);
  BinReader r_more(more.buffer());
  EXPECT_THROW(TwoTenants().LoadState(r_more), CorruptInput);
}

// A payload that throws partway through the ledger (here tenant 1's ECT
// sample count runs past the end) must leave the accountant able to load the
// next older snapshot, as Checkpointer::Recover retries on the same object.
TEST(TenantAccountantTest, LoadAfterAThrowMidLedgerStillLoads) {
  BinWriter torn;
  torn.Size(2);
  torn.Str("premium");
  for (int counter = 0; counter < 9; ++counter) torn.U64(1);
  torn.Size(0);  // no ECT samples
  torn.Str("besteffort");
  for (int counter = 0; counter < 9; ++counter) torn.U64(1);
  torn.Size(1000);  // ECT samples the payload does not hold
  TenantAccountant acc = TwoTenants();
  BinReader r_torn(torn.buffer());
  EXPECT_THROW(acc.LoadState(r_torn), CorruptInput);

  TenantAccountant older = TwoTenants();
  older.Of(TenantId{1}).arrivals = 4;
  older.Of(TenantId{1}).ect.Add(3.0);
  BinWriter valid;
  older.SaveState(valid);
  BinReader r_valid(valid.buffer());
  acc.LoadState(r_valid);
  ASSERT_EQ(acc.tenant_count(), 2u);
  EXPECT_EQ(acc.Of(TenantId{1}).name, "besteffort");
  EXPECT_EQ(acc.Of(TenantId{1}).arrivals, 4u);
  EXPECT_EQ(acc.Of(TenantId{1}).ect.count(), 1u);
}

}  // namespace
}  // namespace nu::metrics
