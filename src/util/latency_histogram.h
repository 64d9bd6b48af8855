// A fixed-size latency histogram: whole microseconds in log-linear buckets,
// HDR-style, written by one thread and folded by any.
//
// Layout: 64 linear sub-buckets per power of two. Values 0-127 us have a
// bucket each, so they are exact. A value in [2^e, 2^(e+1)) with e >= 7
// lands in a bucket 2^(e-6) values wide, whose midpoint is within 1/128
// (0.8%) of every value in it. Values of 2^37 us (about 38 h) or more share
// the top bucket. That is 2,048 uint64 buckets, 16 KiB, whatever the number
// of values recorded. The count, sum, min and max are kept exactly.
#ifndef NV_UTIL_LATENCY_HISTOGRAM_H
#define NV_UTIL_LATENCY_HISTOGRAM_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace nv::util {

class LatencyHistogram {
 public:
  /// 2^kSubBucketBits linear sub-buckets per power of two.
  static constexpr unsigned kSubBucketBits = 6;
  /// Values below this have a bucket each.
  static constexpr std::uint64_t kExactBelow = std::uint64_t{2} << kSubBucketBits;
  /// Values of 2^kTopExponent us or more share the top bucket.
  static constexpr unsigned kTopExponent = 37;
  static constexpr std::size_t kBuckets =
      kExactBelow + (std::size_t{kTopExponent - kSubBucketBits - 1} << kSubBucketBits);

  /// Record one latency. One thread records into a histogram (a fleet lane's
  /// worker), so each field is updated with a load and a store (relaxed, the
  /// bucket's a release): no lock and no locked read-modify-write.
  void record(std::uint64_t us) noexcept;

  /// Add `other`'s values into this histogram; the caller is this
  /// histogram's one writer. `other` may be recording on another thread
  /// meanwhile: a value it records is then either wholly folded in (its
  /// bucket, and a min and max that cover it) or not counted. The work is
  /// bounded by `other`'s highest bucket in use, and nothing is allocated.
  void merge(const LatencyHistogram& other) noexcept;

  // Queries. Exact for a histogram no thread is recording into, such as
  // one that lanes were folded into with merge(). An empty histogram reads
  // zero everywhere.
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const noexcept;
  /// Percentile in [0, 100] by util::Samples::percentile's rule: rank
  /// p/100 * (n-1), linear interpolation between order statistics. An order
  /// statistic reads its bucket's midpoint clamped to [min, max]; the first
  /// reads the exact min and the last the exact max.
  [[nodiscard]] double percentile(double p) const noexcept;
  /// Counts per coarse bucket: out[j] counts the values whose fine bucket's
  /// highest value lies in (bounds[j-1], bounds[j]], and out[bounds.size()]
  /// the rest. `bounds` ascend and out.size() == bounds.size() + 1. A
  /// count is exact at a bound below kExactBelow; at a higher bound it
  /// misses at most the values of the one fine bucket that straddles it.
  void coarse_counts(std::span<const double> bounds, std::span<std::uint64_t> out) const noexcept;

  /// The bucket `us` lands in.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t us) noexcept;
  /// The lowest and highest value of `bucket`'s range. The top bucket also
  /// holds every value past its range.
  [[nodiscard]] static std::uint64_t bucket_lowest(std::size_t bucket) noexcept;
  [[nodiscard]] static std::uint64_t bucket_highest(std::size_t bucket) noexcept;
  [[nodiscard]] static double bucket_midpoint(std::size_t bucket) noexcept;

 private:
  /// Order statistic `k` (0-based) of the count() values.
  [[nodiscard]] double order_statistic(std::uint64_t k) const noexcept;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace nv::util

#endif  // NV_UTIL_LATENCY_HISTOGRAM_H
