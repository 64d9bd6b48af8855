#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace nv::util {

void RunningStats::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void Samples::add(double x) {
  values_.push_back(x);
  sorted_ = false;
}

double Samples::mean() const noexcept {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(rank);
  const std::size_t hi_idx = std::min(lo_idx + 1, values_.size() - 1);
  const double frac = rank - static_cast<double>(lo_idx);
  return values_[lo_idx] * (1.0 - frac) + values_[hi_idx] * frac;
}

}  // namespace nv::util
