// Differential test pinning the typed serve timeseries to the string-row
// recorder it replaced. The reference copy below is the previous recorder
// and ServeRuntime::EmitRow's formatting, verbatim: each row was formatted
// at emission and stored as 21 strings. The typed recorder stores the
// values and formats them when the CSV is written. Over random emission
// sequences (cadence samples, the final sample, every transition edge, an
// empty sketch, counters up to 2^64 - 1 and awkward doubles) the CSV bytes
// must be identical, and the typed rows must come back from Save -> Load
// unchanged and re-save the same bytes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/check.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/table.h"
#include "metrics/sketch.h"
#include "serve/brownout.h"
#include "serve/timeseries.h"

namespace nu::serve {
namespace {

constexpr std::array<double, 4> kEctQuantiles{0.5, 0.9, 0.99, 0.999};

// --- Reference: the string-row recorder, copied verbatim -----------------

namespace reference {

class TimeseriesRecorder {
 public:
  explicit TimeseriesRecorder(Seconds sample_period)
      : sample_period_(sample_period) {
    NU_EXPECTS(sample_period_ > 0.0);
  }

  static const std::vector<std::string>& Header() {
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

  void Append(std::vector<std::string> row) {
    NU_EXPECTS(row.size() == Header().size());
    rows_.push_back(std::move(row));
  }

  bool SampleDue(Seconds now) const { return now >= next_sample_; }
  Seconds next_sample() const { return next_sample_; }
  void Advance() { next_sample_ += sample_period_; }

  void WriteCsv(std::ostream& out) const {
    CsvWriter writer(out);
    writer.WriteRow(Header());
    for (const std::vector<std::string>& row : rows_) writer.WriteRow(row);
  }

  std::string ToCsv() const {
    std::ostringstream out;
    WriteCsv(out);
    return out.str();
  }

  void SaveState(BinWriter& w) const {
    w.F64(next_sample_);
    w.Size(rows_.size());
    for (const std::vector<std::string>& row : rows_) {
      w.Size(row.size());
      for (const std::string& field : row) w.Str(field);
    }
  }

 private:
  Seconds sample_period_;
  Seconds next_sample_ = 0.0;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace reference

/// The ServeRuntime state EmitRow reads, under the runtime's member names,
/// so the reference EmitRow body below is the old one verbatim.
struct Emitter {
  struct Brownout {
    HealthState state_ = HealthState::kHealthy;
    double last_pressure_ = 0.0;
    [[nodiscard]] HealthState state() const { return state_; }
    [[nodiscard]] int DegradationLevel() const {
      return static_cast<int>(state_);
    }
    [[nodiscard]] double last_pressure() const { return last_pressure_; }
  };

  [[nodiscard]] double MissRate() const { return miss_rate_; }

  /// The old ServeRuntime::EmitRow, verbatim.
  void EmitRow(Seconds time, const char* row_type,
               const std::string& detail) {
    std::array<double, kEctQuantiles.size()> ect{};
    if (!sketch_.empty()) sketch_.Quantiles(kEctQuantiles, ect);
    recorder_.Append({
        FormatDouble(time, 3),
        row_type,
        ToString(brownout_.state()),
        std::to_string(brownout_.DegradationLevel()),
        FormatDouble(brownout_.last_pressure(), 4),
        std::to_string(last_queue_length_),
        std::to_string(last_active_),
        std::to_string(arrivals_),
        std::to_string(admitted_),
        std::to_string(rejected_budget_),
        std::to_string(rejected_deadline_),
        std::to_string(rejected_priority_),
        std::to_string(shed_queue_),
        std::to_string(completed_),
        std::to_string(slo_misses_),
        FormatDouble(MissRate(), 4),
        FormatDouble(ect[0], 4),
        FormatDouble(ect[1], 4),
        FormatDouble(ect[2], 4),
        FormatDouble(ect[3], 4),
        detail,
    });
  }

  /// What ServeRuntime::EmitRow now stores for the same state.
  void EmitTyped(TimeseriesRow row) {
    row.health = brownout_.state();
    row.pressure = brownout_.last_pressure();
    row.counts = {last_queue_length_, last_active_,       arrivals_,
                  admitted_,          rejected_budget_,   rejected_deadline_,
                  rejected_priority_, shed_queue_,        completed_,
                  slo_misses_};
    row.miss_rate = MissRate();
    if (!sketch_.empty()) sketch_.Quantiles(kEctQuantiles, row.ect);
    typed_.Append(row);
  }

  void Sample() {
    EmitTyped({.time = recorder_.next_sample()});
    EmitRow(recorder_.next_sample(), "sample", "");
    recorder_.Advance();
    typed_.Advance();
  }

  void Final(Seconds now) {
    EmitTyped({.time = now, .kind = RowKind::kFinal});
    EmitRow(now, "sample", "final");
  }

  void Transition(Seconds time, HealthState from, HealthState to) {
    EmitTyped({.time = time,
               .kind = RowKind::kTransition,
               .from = from,
               .to = to});
    EmitRow(time, "transition",
            std::string(ToString(from)) + "->" + ToString(to));
  }

  /// A double that stresses fixed-precision formatting: zeros of both
  /// signs, half-way cases, large and tiny magnitudes, or a plain draw.
  static double AwkwardDouble(Rng& rng) {
    static const std::array<double, 9> kSpecial = {
        0.0, -0.0, 0.00005, 0.99995, 0.0004999, 1e-12, 1e20, 123456.78915,
        2.5};
    if (rng.Index(3) == 0) return kSpecial[rng.Index(kSpecial.size())];
    return rng.Uniform(0.0, 5.0);
  }

  static std::size_t AwkwardCount(Rng& rng) {
    switch (rng.Index(4)) {
      case 0:
        return std::numeric_limits<std::size_t>::max() - rng.Index(3);
      case 1:
        return 0;
      default:
        return rng.Index(100000);
    }
  }

  /// One random change to the state EmitRow reads.
  void Mutate(Rng& rng) {
    brownout_.state_ = static_cast<HealthState>(rng.Index(4));
    brownout_.last_pressure_ = AwkwardDouble(rng);
    miss_rate_ = rng.Index(4) == 0 ? AwkwardDouble(rng) : rng.Uniform01();
    for (std::size_t* count :
         {&last_queue_length_, &last_active_, &arrivals_, &admitted_,
          &rejected_budget_, &rejected_deadline_, &rejected_priority_,
          &shed_queue_, &completed_, &slo_misses_}) {
      if (rng.Index(2) == 0) *count = AwkwardCount(rng);
    }
    const std::size_t completions = rng.Index(3);
    for (std::size_t i = 0; i < completions; ++i) {
      sketch_.Add(AwkwardDouble(rng));
    }
  }

  Brownout brownout_;
  metrics::PercentileSketch sketch_{
      metrics::PercentileSketch::Options{.exact_capacity = 8}};
  double miss_rate_ = 0.0;
  std::size_t last_queue_length_ = 0;
  std::size_t last_active_ = 0;
  std::size_t arrivals_ = 0;
  std::size_t admitted_ = 0;
  std::size_t rejected_budget_ = 0;
  std::size_t rejected_deadline_ = 0;
  std::size_t rejected_priority_ = 0;
  std::size_t shed_queue_ = 0;
  std::size_t completed_ = 0;
  std::size_t slo_misses_ = 0;
  reference::TimeseriesRecorder recorder_{0.5};
  TimeseriesRecorder typed_{0.5};
};

std::string Bytes(const auto& recorder) {
  BinWriter w;
  recorder.SaveState(w);
  return w.TakeBuffer();
}

TEST(TimeseriesDifferentialTest, CsvMatchesStringRowReference) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    Emitter emitter;
    // Rows on an empty sketch first.
    emitter.Sample();
    emitter.Transition(0.25, HealthState::kHealthy, HealthState::kDegraded);
    Seconds now = 0.0;
    std::size_t edge = 0;
    for (int step = 0; step < 300; ++step) {
      emitter.Mutate(rng);
      now += rng.Uniform(0.0, 0.7);
      const std::size_t action = rng.Index(4);
      if (action == 0) {
        // Every ordered pair of distinct states, in turn.
        const auto from = static_cast<HealthState>(edge / 3);
        const std::size_t to_index = edge % 3;
        const auto to = static_cast<HealthState>(
            to_index >= edge / 3 ? to_index + 1 : to_index);
        emitter.Transition(now, from, to);
        edge = (edge + 1) % 12;
      } else if (action == 1) {
        emitter.Final(now);
      }
      while (emitter.recorder_.SampleDue(now)) emitter.Sample();
    }
    emitter.Final(now + 1e6);
    ASSERT_EQ(emitter.typed_.ToCsv(), emitter.recorder_.ToCsv())
        << "seed " << seed;
    ASSERT_EQ(emitter.typed_.next_sample(), emitter.recorder_.next_sample());

    // Typed Save -> Load -> Save is a fixed point, and the loaded rows
    // format the same CSV.
    const std::string saved = Bytes(emitter.typed_);
    TimeseriesRecorder loaded(0.5);
    BinReader r(saved);
    loaded.LoadState(r);
    r.ExpectEnd();
    EXPECT_EQ(loaded.rows(), emitter.typed_.rows()) << "seed " << seed;
    EXPECT_EQ(Bytes(loaded), saved) << "seed " << seed;
    EXPECT_EQ(loaded.ToCsv(), emitter.typed_.ToCsv()) << "seed " << seed;
    EXPECT_LT(saved.size(), Bytes(emitter.recorder_).size());
  }
}

TEST(TimeseriesDifferentialTest, RowsAreFixedWidth) {
  Emitter emitter;
  emitter.Sample();
  const std::size_t one = Bytes(emitter.typed_).size();
  emitter.Transition(0.1, HealthState::kShedding, HealthState::kOverloaded);
  emitter.Final(0.2);
  // next_sample and the row count, then 140 bytes per row.
  EXPECT_EQ(one, 16u + 140u);
  EXPECT_EQ(Bytes(emitter.typed_).size(), 16u + 3u * 140u);
}

TEST(TimeseriesDifferentialTest, BadKindOrStateIsCorrupt) {
  Emitter emitter;
  emitter.Transition(0.1, HealthState::kDegraded, HealthState::kOverloaded);
  const std::string good = Bytes(emitter.typed_);
  // After next_sample (8), the row count (8) and the row's time (8): the
  // kind, from, to and health bytes.
  constexpr std::size_t kKind = 24;
  const auto load = [](const std::string& payload) {
    TimeseriesRecorder recorder(0.5);
    BinReader r(payload);
    recorder.LoadState(r);
    r.ExpectEnd();
  };
  EXPECT_NO_THROW(load(good));
  for (std::size_t field = 0; field < 4; ++field) {
    for (const std::uint8_t value : {std::uint8_t{3}, std::uint8_t{4},
                                     std::uint8_t{255}}) {
      const bool kind = field == 0;
      if (!kind && value == 3) continue;  // kShedding is a valid state
      std::string bad = good;
      bad[kKind + field] = static_cast<char>(value);
      EXPECT_THROW(load(bad), CorruptInput)
          << "field " << field << " value " << int{value};
    }
  }
}

}  // namespace
}  // namespace nu::serve
