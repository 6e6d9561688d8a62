// Deterministic streaming-percentile sketch for SLO telemetry.
//
// The serving layer needs p50/p90/p99/p999 of admitted-event latency over an
// unbounded stream, sampled periodically into a timeseries — so percentiles
// must be cheap to query mid-run and the memory footprint must not grow with
// the stream. metrics::Samples keeps every value (exact but O(n) memory);
// this sketch is the streaming counterpart:
//
//   * Up to `exact_capacity` values it stores them verbatim, so small-N
//     quantiles agree EXACTLY with Samples::Percentile (same interpolation).
//   * Past that it migrates to logarithmically spaced buckets (growth factor
//     `growth` per bucket): a value v maps to bucket floor(log(v/min_value) /
//     log(growth)), and a quantile answer is the geometric midpoint of its
//     bucket — relative error bounded by sqrt(growth) - 1 (~2.5% at the
//     default 1.05), independent of stream length.
//
// Unlike sampling-based sketches there is no randomness anywhere: the same
// value sequence produces the same sketch state and the same answers on
// every run and platform, which is what makes serve-mode timeseries
// byte-reproducible. State serializes with SaveState/LoadState so the sketch
// rides in simulator snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/binio.h"

namespace nu::metrics {

class PercentileSketch {
 public:
  struct Options {
    /// Values kept verbatim before migrating to buckets. 0 = bucketed from
    /// the first value.
    std::size_t exact_capacity = 256;
    /// Smallest resolvable positive value; everything at or below it shares
    /// the underflow bucket (reported as min_value).
    double min_value = 1e-6;
    /// Per-bucket growth factor (> 1). Relative quantile error is bounded
    /// by sqrt(growth) - 1.
    double growth = 1.05;
  };

  PercentileSketch() : PercentileSketch(Options{}) {}
  explicit PercentileSketch(Options options);

  /// Adds one sample. Negative values are clamped to zero (latencies).
  void Add(double value);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;

  /// Quantile in [0, 1]. Exact (Samples-compatible interpolation) while in
  /// the exact phase; bucket geometric midpoint afterwards, with the true
  /// observed min/max returned for q touching either end. Requires a
  /// non-empty sketch.
  [[nodiscard]] double Quantile(double q) const;

  /// Quantile(qs[i]) into out[i] for every i (equal lengths), sorting the
  /// exact-phase values once for all of them. Requires a non-empty sketch.
  void Quantiles(std::span<const double> qs, std::span<double> out) const;

  /// True once the sketch has spilled from exact storage into buckets.
  [[nodiscard]] bool bucketed() const { return bucketed_; }

  [[nodiscard]] const Options& options() const { return options_; }

  void Reset();

  // Snapshot support: full sketch state (phase, exact values in insertion
  // order, bucket counts) round-trips bitwise. LoadState throws
  // CorruptInput when the stored values disagree with the count: in the
  // exact phase a value row that is not `count` long (or outgrows
  // exact_capacity) or any bucket; in the bucket phase any exact value or
  // bucket counts that do not sum to `count`.
  void SaveState(BinWriter& w) const;
  void LoadState(BinReader& r);

 private:
  template <typename Ar, typename Self>
  static void Section(Ar& ar, Self& self);
  [[nodiscard]] std::size_t BucketIndex(double value) const;
  [[nodiscard]] double BucketMid(std::size_t index) const;
  /// Bucket-phase quantile of a clamped q.
  [[nodiscard]] double BucketQuantile(double q) const;
  void MigrateToBuckets();

  Options options_;
  bool bucketed_ = false;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// Exact phase: raw values in insertion order (sorted lazily per query).
  std::vector<double> exact_;
  /// Bucket phase: counts per log-spaced bucket; index 0 is the underflow
  /// bucket for values <= min_value.
  std::vector<std::uint64_t> buckets_;
};

}  // namespace nu::metrics
