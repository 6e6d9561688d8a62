#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/check.h"

namespace nu {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

Samples::Samples(std::vector<double> values) : values_(std::move(values)) {}

void Samples::Add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

void Samples::Clear() {
  values_.clear();
  sorted_.clear();
  sorted_valid_ = false;
}

template <typename Ar, typename Self>
void Samples::Section(Ar& ar, Self& self) {
  ar.Seq(self.values_, [](Ar& a, auto& v) { a.F64(v); });
  if constexpr (Ar::kLoading) self.sorted_valid_ = false;
}

void Samples::SaveState(BinWriter& w) const { Section(w, *this); }
void Samples::LoadState(BinReader& r) { Section(r, *this); }

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  return sum() / static_cast<double>(values_.size());
}

double Samples::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Samples::stddev() const {
  RunningStats rs;
  for (double v : values_) rs.Add(v);
  return rs.stddev();
}

void Samples::EnsureSorted() const {
  if (sorted_valid_) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Samples::Percentile(double q) const {
  NU_EXPECTS(q >= 0.0 && q <= 1.0);
  if (values_.empty()) return 0.0;
  EnsureSorted();
  if (sorted_.size() == 1) return sorted_.front();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double ReductionVs(double baseline, double ours) {
  if (baseline == 0.0) return 0.0;
  return (baseline - ours) / baseline;
}

std::string PercentString(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace nu
