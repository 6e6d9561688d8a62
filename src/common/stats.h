// Descriptive statistics over samples: mean, variance, percentiles, and a
// streaming accumulator. Used by the metrics layer (avg/tail ECT, queuing
// delay) and by trace-generator self-tests.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/binio.h"

namespace nu {

/// Streaming accumulator (Welford) — O(1) memory, numerically stable.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);
  void Reset();

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator). Zero for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Batch statistics over an explicit sample set; keeps the samples so exact
/// percentiles are available.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> values);

  void Add(double x);
  void Clear();

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double stddev() const;

  /// Exact percentile via linear interpolation between order statistics.
  /// `q` in [0, 1]; Percentile(0.99) is the "tail" metric used by the paper.
  [[nodiscard]] double Percentile(double q) const;

  /// Median shorthand.
  [[nodiscard]] double Median() const { return Percentile(0.5); }

  [[nodiscard]] std::span<const double> values() const { return values_; }

  /// Snapshot form: the values in insertion order, length-prefixed.
  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);
  void EnsureSorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Relative reduction of `ours` vs `baseline`, i.e. (baseline-ours)/baseline.
/// The paper reports most results in this form ("75% reduction vs FIFO").
/// Returns 0 when the baseline is zero.
[[nodiscard]] double ReductionVs(double baseline, double ours);

/// Formats a fraction as a percent string, e.g. 0.753 -> "75.3%".
[[nodiscard]] std::string PercentString(double fraction, int decimals = 1);

}  // namespace nu
