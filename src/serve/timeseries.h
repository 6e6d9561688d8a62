// Serve-mode timeseries: periodic samples of the serving layer's health and
// SLO telemetry, plus a typed row for every brownout transition, emitted as
// one deterministic CSV per run.
//
// Rows are stored typed (the values ServeRuntime read at emission time) and
// formatted once, when the CSV is written, with fixed precisions
// (common::FormatDouble) and std::to_string. The CSV bytes are therefore a
// pure function of the emission sequence: two runs with the same seed
// produce byte-identical files, which is what the serve-smoke CI job
// byte-compares. The typed rows snapshot with the run as fixed-width
// fields, so a crash+resume emits the identical file.
//
// Column dictionary: see docs/model.md §14.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/types.h"
#include "serve/brownout.h"

namespace nu::serve {

/// What a row records: a cadence sample, the end-of-run sample, or a
/// brownout transition.
enum class RowKind : std::uint8_t {
  kSample = 0,
  kFinal = 1,
  kTransition = 2,
};

/// One timeseries row as emitted. `level` is not stored: it is
/// static_cast<int>(health).
struct TimeseriesRow {
  Seconds time = 0.0;
  RowKind kind = RowKind::kSample;
  /// The transition's edge; both kHealthy on sample rows.
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  HealthState health = HealthState::kHealthy;
  double pressure = 0.0;
  /// The count columns in header order: queue, active, arrivals, admitted,
  /// rejected_budget, rejected_deadline, rejected_priority, shed_queue,
  /// completed, slo_misses.
  std::array<std::uint64_t, 10> counts{};
  double miss_rate = 0.0;
  /// ECT p50, p90, p99, p999 (zeros while the sketch is empty).
  std::array<double, 4> ect{};

  bool operator==(const TimeseriesRow&) const = default;
};

class TimeseriesRecorder {
 public:
  /// `sample_period` is the cadence of "sample" rows (virtual seconds).
  explicit TimeseriesRecorder(Seconds sample_period);

  /// The CSV header row (shared with readers/tests).
  [[nodiscard]] static const std::vector<std::string>& Header();

  /// Emits one row.
  void Append(const TimeseriesRow& row) { rows_.push_back(row); }

  /// True when virtual time `now` has reached the next sample boundary.
  [[nodiscard]] bool SampleDue(Seconds now) const {
    return now >= next_sample_;
  }
  /// The pending sample boundary (row timestamp for cadence samples).
  [[nodiscard]] Seconds next_sample() const { return next_sample_; }
  /// Advances to the next boundary (one period) after a cadence sample.
  void Advance() { next_sample_ += sample_period_; }

  [[nodiscard]] const std::vector<TimeseriesRow>& rows() const {
    return rows_;
  }

  /// Writes header + rows as CSV, formatting each row here.
  void WriteCsv(std::ostream& out) const;
  [[nodiscard]] std::string ToCsv() const;

  // Snapshot support: emitted rows and the sample cursor round-trip, so a
  // recovered run appends exactly where the crashed one stopped. A row
  // whose kind or health state is out of range throws CorruptInput.
  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);

  Seconds sample_period_;
  Seconds next_sample_ = 0.0;
  std::vector<TimeseriesRow> rows_;
};

}  // namespace nu::serve
