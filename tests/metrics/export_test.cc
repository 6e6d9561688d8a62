#include "metrics/export.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.h"

namespace nu::metrics {
namespace {

TEST(ExportTest, RecordsCsvRoundTrips) {
  std::vector<EventRecord> records;
  EventRecord r;
  r.event = EventId{7};
  r.arrival = 1.0;
  r.exec_start = 2.5;
  r.completion = 4.0;
  r.cost = 120.5;
  r.flow_count = 9;
  r.deferred_flows = 1;
  records.push_back(r);

  std::ostringstream out;
  WriteRecordsCsv(out, records);
  const CsvFile parsed = ParseCsv(out.str(), /*has_header=*/true);
  ASSERT_EQ(parsed.rows.size(), 1u);
  const auto& row = parsed.rows[0];
  EXPECT_EQ(row[*parsed.ColumnIndex("event")], "7");
  EXPECT_EQ(row[*parsed.ColumnIndex("queuing_delay")], "1.5000");
  EXPECT_EQ(row[*parsed.ColumnIndex("ect")], "3.0000");
  EXPECT_EQ(row[*parsed.ColumnIndex("cost")], "120.50");
  EXPECT_EQ(row[*parsed.ColumnIndex("flow_count")], "9");
}

TEST(ExportTest, ReportCsvHasAllColumns) {
  Report report;
  report.event_count = 3;
  report.avg_ect = 10.0;
  report.tail_ect = 20.0;
  report.total_cost = 300.0;
  report.makespan = 25.0;
  report.installs_attempted = 12;
  report.installs_retried = 2;
  report.events_aborted = 1;
  report.recovery_latency_p99 = 0.75;
  report.events_shed = 4;
  report.deadline_misses = 5;
  report.events_quarantined = 1;
  report.audit_violations = 0;
  report.max_queue_length = 16;
  report.probe_cache_hits = 7;
  report.exec_plan_reuses = 6;
  report.drift_checks = 9;
  report.drift_rules_detected = 8;
  report.grey_ack_lies = 3;
  report.drift_repairs = 7;
  report.drift_rules_abandoned = 1;
  report.switches_quarantined = 2;
  report.drift_repair_p99 = 0.5;

  std::ostringstream out;
  WriteReportCsv(out, report);
  const CsvFile parsed = ParseCsv(out.str(), /*has_header=*/true);
  ASSERT_EQ(parsed.rows.size(), 1u);
  EXPECT_EQ(parsed.header.size(), 54u);
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("events")], "3");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("avg_ect")], "10.0000");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("makespan")], "25.0000");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("installs_attempted")], "12");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("installs_retried")], "2");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("events_aborted")], "1");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("recovery_p99")], "0.7500");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("events_shed")], "4");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("deadline_misses")], "5");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("events_quarantined")], "1");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("audit_violations")], "0");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("max_queue_length")], "16");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("probe_cache_hits")], "7");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("exec_plan_reuses")], "6");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("drift_checks")], "9");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("drift_rules_detected")], "8");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("grey_ack_lies")], "3");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("drift_repairs")], "7");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("drift_rules_abandoned")], "1");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("switches_quarantined")], "2");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("drift_repair_p99")], "0.5000");
}

TEST(ExportTest, RecordsCsvCarriesFaultColumns) {
  std::vector<EventRecord> records;
  EventRecord r;
  r.event = EventId{3};
  r.aborts = 2;
  r.replans = 1;
  records.push_back(r);

  std::ostringstream out;
  WriteRecordsCsv(out, records);
  const CsvFile parsed = ParseCsv(out.str(), /*has_header=*/true);
  ASSERT_EQ(parsed.rows.size(), 1u);
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("aborts")], "2");
  EXPECT_EQ(parsed.rows[0][*parsed.ColumnIndex("replans")], "1");
}

TEST(ExportTest, EmptyRecordsProducesHeaderOnly) {
  std::ostringstream out;
  WriteRecordsCsv(out, {});
  const CsvFile parsed = ParseCsv(out.str(), /*has_header=*/true);
  EXPECT_TRUE(parsed.rows.empty());
  EXPECT_FALSE(parsed.header.empty());
}

}  // namespace
}  // namespace nu::metrics
