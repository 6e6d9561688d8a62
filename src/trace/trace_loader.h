// CSV trace loader + replayer. Accepts records of the form
//     src_ip,dst_ip,demand_mbps,duration_s
// (header optional; alternatively `bytes,duration_s` pairs from which demand
// is derived). This is the hook for replaying a real Yahoo!-style trace when
// one is available; the synthetic generators cover the default case.
#pragma once

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "trace/generator.h"
#include "trace/ip_mapper.h"

namespace nu::trace {

struct TraceRecord {
  std::string src_ip;
  std::string dst_ip;
  Mbps demand = 0.0;
  Seconds duration = 0.0;
};

/// Parses CSV text into records. Columns (by header name when a header row
/// is present, by position otherwise): src_ip, dst_ip, then either
/// demand_mbps or bytes, then duration_s. Records with non-positive demand
/// or duration are skipped. Throws CorruptInput naming the line on a header
/// that lacks a column, a short row, or a cell that is not a finite number.
[[nodiscard]] std::vector<TraceRecord> ParseTraceCsv(const std::string& text);

/// Loads ParseTraceCsv from a file path (CorruptInput if it is unreadable).
[[nodiscard]] std::vector<TraceRecord> LoadTraceFile(const std::string& path);

/// Writes records in the loader's canonical header format
/// (src_ip,dst_ip,demand_mbps,duration_s); ParseTraceCsv round-trips the
/// output exactly. Lets users snapshot a synthetic workload as a trace.
void WriteTraceCsv(std::ostream& out, std::span<const TraceRecord> records);

/// Samples `count` flows from a generator into records (IPs synthesized
/// from the host ids), e.g. to export a Yahoo-like workload.
[[nodiscard]] std::vector<TraceRecord> SampleTrace(TrafficGenerator& generator,
                                                   std::size_t count);

/// Replays loaded records as a TrafficGenerator (cycling when exhausted),
/// mapping IPs to hosts through IpMapper.
class TraceReplayGenerator final : public TrafficGenerator {
 public:
  TraceReplayGenerator(std::vector<TraceRecord> records,
                       std::span<const NodeId> hosts);

  [[nodiscard]] FlowSpec Next() override;
  [[nodiscard]] const char* name() const override { return "trace-replay"; }

  [[nodiscard]] std::size_t record_count() const { return records_.size(); }

 private:
  std::vector<TraceRecord> records_;
  IpMapper mapper_;
  std::size_t cursor_ = 0;
};

}  // namespace nu::trace
