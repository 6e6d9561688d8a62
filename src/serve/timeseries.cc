#include "serve/timeseries.h"

#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/csv.h"
#include "common/table.h"

namespace nu::serve {
namespace {

/// The `detail` column: the transition edge, "final", or empty.
std::string Detail(const TimeseriesRow& row) {
  switch (row.kind) {
    case RowKind::kSample:
      return "";
    case RowKind::kFinal:
      return "final";
    case RowKind::kTransition:
      return std::string(ToString(row.from)) + "->" + ToString(row.to);
  }
  return "";
}

}  // namespace

TimeseriesRecorder::TimeseriesRecorder(Seconds sample_period)
    : sample_period_(sample_period) {
  NU_EXPECTS(sample_period_ > 0.0);
}

const std::vector<std::string>& TimeseriesRecorder::Header() {
  static const std::vector<std::string> kHeader = {
      "time",           "row",
      "health",         "level",
      "pressure",       "queue",
      "active",         "arrivals",
      "admitted",       "rejected_budget",
      "rejected_deadline", "rejected_priority",
      "shed_queue",     "completed",
      "slo_misses",     "miss_rate",
      "ect_p50",        "ect_p90",
      "ect_p99",        "ect_p999",
      "detail"};
  return kHeader;
}

void TimeseriesRecorder::WriteCsv(std::ostream& out) const {
  CsvWriter writer(out);
  writer.WriteRow(Header());
  std::vector<std::string> cells;
  cells.reserve(Header().size());
  for (const TimeseriesRow& row : rows_) {
    cells.clear();
    cells.push_back(FormatDouble(row.time, 3));
    cells.emplace_back(row.kind == RowKind::kTransition ? "transition"
                                                        : "sample");
    cells.emplace_back(ToString(row.health));
    cells.push_back(std::to_string(static_cast<int>(row.health)));
    cells.push_back(FormatDouble(row.pressure, 4));
    for (const std::uint64_t count : row.counts) {
      cells.push_back(std::to_string(count));
    }
    cells.push_back(FormatDouble(row.miss_rate, 4));
    for (const double quantile : row.ect) {
      cells.push_back(FormatDouble(quantile, 4));
    }
    cells.push_back(Detail(row));
    writer.WriteRow(cells);
  }
}

std::string TimeseriesRecorder::ToCsv() const {
  std::ostringstream out;
  WriteCsv(out);
  return out.str();
}

template <typename Ar, typename Self>
void TimeseriesRecorder::Section(Ar& ar, Self& self) {
  ar.F64(self.next_sample_);
  ar.Seq(self.rows_, [](Ar& a, auto& row) {
    a.F64(row.time);
    a.Enum(row.kind, RowKind::kTransition);
    a.Enum(row.from, HealthState::kShedding);
    a.Enum(row.to, HealthState::kShedding);
    a.Enum(row.health, HealthState::kShedding);
    a.F64(row.pressure);
    for (auto& count : row.counts) a.U64(count);
    a.F64(row.miss_rate);
    for (auto& quantile : row.ect) a.F64(quantile);
  });
}

void TimeseriesRecorder::SaveState(BinWriter& w) const { Section(w, *this); }
void TimeseriesRecorder::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::serve
