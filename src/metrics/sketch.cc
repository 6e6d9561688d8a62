#include "metrics/sketch.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace nu::metrics {

PercentileSketch::PercentileSketch(Options options) : options_(options) {
  NU_EXPECTS(options_.growth > 1.0);
  NU_EXPECTS(options_.min_value > 0.0);
}

void PercentileSketch::Add(double value) {
  if (value < 0.0) value = 0.0;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (!bucketed_) {
    exact_.push_back(value);
    if (exact_.size() > options_.exact_capacity) MigrateToBuckets();
    return;
  }
  const std::size_t index = BucketIndex(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
}

double PercentileSketch::min() const {
  NU_EXPECTS(count_ > 0);
  return min_;
}

double PercentileSketch::max() const {
  NU_EXPECTS(count_ > 0);
  return max_;
}

double PercentileSketch::mean() const {
  NU_EXPECTS(count_ > 0);
  return sum_ / static_cast<double>(count_);
}

std::size_t PercentileSketch::BucketIndex(double value) const {
  if (value <= options_.min_value) return 0;
  // Bucket b >= 1 covers (min_value * growth^(b-1), min_value * growth^b].
  const double ratio = value / options_.min_value;
  const auto b = static_cast<std::size_t>(
      std::ceil(std::log(ratio) / std::log(options_.growth) - 1e-12));
  return b == 0 ? 1 : b;
}

double PercentileSketch::BucketMid(std::size_t index) const {
  if (index == 0) return options_.min_value;
  // Geometric midpoint of (min_value * growth^(i-1), min_value * growth^i].
  return options_.min_value *
         std::pow(options_.growth, static_cast<double>(index) - 0.5);
}

void PercentileSketch::MigrateToBuckets() {
  bucketed_ = true;
  for (double v : exact_) {
    const std::size_t index = BucketIndex(v);
    if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
    ++buckets_[index];
  }
  exact_.clear();
  exact_.shrink_to_fit();
}

namespace {

/// Exact-phase quantile over ascending `sorted`, with the same
/// interpolation as Samples::Percentile: rank q * (n - 1) between order
/// statistics (bitwise agreement matters for the exact-phase unit tests).
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.size() == 1) return sorted.front();
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double PercentileSketch::Quantile(double q) const {
  double out = 0.0;
  Quantiles({&q, 1}, {&out, 1});
  return out;
}

void PercentileSketch::Quantiles(std::span<const double> qs,
                                 std::span<double> out) const {
  NU_EXPECTS(count_ > 0);
  NU_EXPECTS(qs.size() == out.size());
  if (bucketed_) {
    for (std::size_t i = 0; i < qs.size(); ++i) {
      out[i] = BucketQuantile(std::clamp(qs[i], 0.0, 1.0));
    }
    return;
  }
  std::vector<double> sorted = exact_;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    out[i] = SortedQuantile(sorted, std::clamp(qs[i], 0.0, 1.0));
  }
}

double PercentileSketch::BucketQuantile(double q) const {
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Walk bucket counts to the target rank; answer the bucket midpoint,
  // clamped to the observed range so tails never overshoot max.
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target) return std::clamp(BucketMid(i), min_, max_);
  }
  return max_;
}

void PercentileSketch::Reset() {
  bucketed_ = false;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  exact_.clear();
  buckets_.clear();
}

template <typename Ar, typename Self>
void PercentileSketch::Section(Ar& ar, Self& self) {
  ar.Bool(self.bucketed_);
  ar.U64(self.count_);
  ar.F64(self.sum_, self.min_, self.max_);
  ar.Seq(self.exact_, [](Ar& a, auto& v) { a.F64(v); });
  ar.Seq(self.buckets_, [](Ar& a, auto& c) { a.U64(c); });
  if constexpr (Ar::kLoading) {
    if (!self.bucketed_) {
      ar.Check(self.exact_.size() == self.count_ &&
                   self.exact_.size() <= self.options_.exact_capacity &&
                   self.buckets_.empty(),
               "sketch exact phase disagrees with its count");
      return;
    }
    // Bucket counts are unsigned: a running sum past count_ is a mismatch
    // caught before it could wrap back onto it.
    std::uint64_t total = 0;
    for (const std::uint64_t bucket : self.buckets_) {
      ar.Check(bucket <= self.count_ - total,
               "sketch buckets disagree with its count");
      total += bucket;
    }
    ar.Check(self.exact_.empty() && total == self.count_,
             "sketch buckets disagree with its count");
  }
}

void PercentileSketch::SaveState(BinWriter& w) const { Section(w, *this); }
void PercentileSketch::LoadState(BinReader& r) { Section(r, *this); }

}  // namespace nu::metrics
