// Streaming and batch statistics used by the performance model and benches.
#ifndef NV_UTIL_STATS_H
#define NV_UTIL_STATS_H

#include <cstddef>
#include <limits>
#include <vector>

namespace nv::util {

/// Welford single-pass accumulator: count/mean/variance/min/max without
/// retaining samples.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Sample-retaining collector for percentile queries.
class Samples {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double mean() const noexcept;
  /// Percentile in [0, 100]; linear interpolation between order statistics.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace nv::util

#endif  // NV_UTIL_STATS_H
