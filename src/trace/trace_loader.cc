#include "trace/trace_loader.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/csv.h"
#include "common/text.h"

namespace nu::trace {

std::vector<TraceRecord> ParseTraceCsv(const std::string& text) {
  // The first non-comment line is a header when it names a column.
  const CsvFile file = ParseCsv(text, /*has_header=*/false);
  const bool has_header =
      !file.rows.empty() &&
      std::any_of(file.rows[0].begin(), file.rows[0].end(),
                  [](const std::string& cell) {
                    return cell == "src_ip" || cell == "demand_mbps" ||
                           cell == "bytes";
                  });
  std::size_t src_col = 0, dst_col = 1, size_col = 2, dur_col = 3;
  bool size_is_bytes = false;
  if (has_header) {
    const std::vector<std::string>& header = file.rows[0];
    const auto column = [&header](const char* name) {  // size() if absent
      return static_cast<std::size_t>(
          std::find(header.begin(), header.end(), name) - header.begin());
    };
    src_col = column("src_ip");
    dst_col = column("dst_ip");
    dur_col = column("duration_s");
    size_is_bytes = column("demand_mbps") == header.size();
    size_col = column(size_is_bytes ? "bytes" : "demand_mbps");
    if (std::max({src_col, dst_col, size_col, dur_col}) == header.size()) {
      throw CorruptInput("trace line " + std::to_string(file.row_lines[0]) +
                         ": header needs src_ip, dst_ip, demand_mbps or "
                         "bytes, and duration_s");
    }
  }
  const std::size_t columns =
      std::max({src_col, dst_col, size_col, dur_col}) + 1;

  std::vector<TraceRecord> records;
  records.reserve(file.rows.size());
  for (std::size_t r = has_header ? 1 : 0; r < file.rows.size(); ++r) {
    const std::vector<std::string>& row = file.rows[r];
    const std::string where = "trace line " + std::to_string(file.row_lines[r]);
    if (row.size() < columns) {
      throw CorruptInput(where + ": expected " + std::to_string(columns) +
                         " columns, got " + std::to_string(row.size()));
    }
    const auto number = [&](std::size_t col) {
      return Require<CorruptInput>(ParseReal(row[col]), row[col],
                                   where + ": bad number");
    };
    TraceRecord rec;
    rec.src_ip = row[src_col];
    rec.dst_ip = row[dst_col];
    rec.duration = number(dur_col);
    const double size_value = number(size_col);
    if (size_is_bytes) {
      // bytes over duration -> Mbps.
      rec.demand = rec.duration > 0.0
                       ? size_value * 8.0 / 1e6 / rec.duration
                       : 0.0;
      if (!std::isfinite(rec.demand)) {
        throw CorruptInput(where + ": demand out of range");
      }
    } else {
      rec.demand = size_value;
    }
    if (rec.demand <= 0.0 || rec.duration <= 0.0) continue;
    if (rec.src_ip == rec.dst_ip) continue;
    records.push_back(std::move(rec));
  }
  return records;
}

std::vector<TraceRecord> LoadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CorruptInput("cannot read trace file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseTraceCsv(buffer.str());
}

void WriteTraceCsv(std::ostream& out, std::span<const TraceRecord> records) {
  CsvWriter writer(out);
  writer.WriteRow({"src_ip", "dst_ip", "demand_mbps", "duration_s"});
  for (const TraceRecord& rec : records) {
    writer.WriteRow({rec.src_ip, rec.dst_ip, FormatReal(rec.demand),
                     FormatReal(rec.duration)});
  }
}

std::vector<TraceRecord> SampleTrace(TrafficGenerator& generator,
                                     std::size_t count) {
  std::vector<TraceRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const FlowSpec spec = generator.Next();
    TraceRecord rec;
    // Synthesize stable per-host IPs from node ids.
    rec.src_ip = "10.0.0." + std::to_string(spec.src.value());
    rec.dst_ip = "10.0.0." + std::to_string(spec.dst.value());
    rec.demand = spec.demand;
    rec.duration = spec.duration;
    records.push_back(std::move(rec));
  }
  return records;
}

TraceReplayGenerator::TraceReplayGenerator(std::vector<TraceRecord> records,
                                           std::span<const NodeId> hosts)
    : records_(std::move(records)), mapper_(hosts) {
  NU_EXPECTS(!records_.empty());
}

FlowSpec TraceReplayGenerator::Next() {
  const TraceRecord& rec = records_[cursor_];
  cursor_ = (cursor_ + 1) % records_.size();
  const auto [src, dst] = mapper_.MapPair(rec.src_ip, rec.dst_ip);
  return FlowSpec{
      .src = src, .dst = dst, .demand = rec.demand, .duration = rec.duration};
}

}  // namespace nu::trace
