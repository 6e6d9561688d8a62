#include "serve/timeseries.h"

#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/csv.h"
#include "common/table.h"

namespace nu::serve {
namespace {

HealthState LoadHealth(BinReader& r) {
  const std::uint8_t v = r.U8();
  if (v > static_cast<std::uint8_t>(HealthState::kShedding)) {
    throw CorruptInput("timeseries health state out of range");
  }
  return static_cast<HealthState>(v);
}

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

void TimeseriesRecorder::SaveState(BinWriter& w) const {
  w.F64(next_sample_);
  w.Size(rows_.size());
  for (const TimeseriesRow& row : rows_) {
    w.F64(row.time);
    w.U8(static_cast<std::uint8_t>(row.kind));
    w.U8(static_cast<std::uint8_t>(row.from));
    w.U8(static_cast<std::uint8_t>(row.to));
    w.U8(static_cast<std::uint8_t>(row.health));
    w.F64(row.pressure);
    for (const std::uint64_t count : row.counts) w.U64(count);
    w.F64(row.miss_rate);
    for (const double quantile : row.ect) w.F64(quantile);
  }
}

void TimeseriesRecorder::LoadState(BinReader& r) {
  next_sample_ = r.F64();
  rows_.clear();
  const std::size_t n = r.Size();
  rows_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TimeseriesRow row;
    row.time = r.F64();
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(RowKind::kTransition)) {
      throw CorruptInput("timeseries row kind out of range");
    }
    row.kind = static_cast<RowKind>(kind);
    row.from = LoadHealth(r);
    row.to = LoadHealth(r);
    row.health = LoadHealth(r);
    row.pressure = r.F64();
    for (std::uint64_t& count : row.counts) count = r.U64();
    row.miss_rate = r.F64();
    for (double& quantile : row.ect) quantile = r.F64();
    rows_.push_back(row);
  }
}

}  // namespace nu::serve
