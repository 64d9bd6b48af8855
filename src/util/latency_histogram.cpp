#include "util/latency_histogram.h"

#include <algorithm>
#include <bit>

namespace nv::util {

namespace {

constexpr std::uint64_t kSubBuckets = std::uint64_t{1} << LatencyHistogram::kSubBucketBits;

/// A single-writer count: a relaxed load and store, no locked
/// read-modify-write.
void add(std::atomic<std::uint64_t>& counter, std::uint64_t delta) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

/// The power of two a bucket at or past kExactBelow covers.
unsigned exponent_of(std::size_t bucket) noexcept {
  return LatencyHistogram::kSubBucketBits + 1 +
         static_cast<unsigned>((bucket - LatencyHistogram::kExactBelow) >>
                               LatencyHistogram::kSubBucketBits);
}

}  // namespace

std::size_t LatencyHistogram::bucket_of(std::uint64_t us) noexcept {
  if (us < kExactBelow) return static_cast<std::size_t>(us);
  const auto exponent = static_cast<unsigned>(std::bit_width(us) - 1);
  if (exponent >= kTopExponent) return kBuckets - 1;
  const unsigned shift = exponent - kSubBucketBits;
  return static_cast<std::size_t>(kExactBelow + ((exponent - kSubBucketBits - 1) << kSubBucketBits) +
                                  (us >> shift) - kSubBuckets);
}

std::uint64_t LatencyHistogram::bucket_lowest(std::size_t bucket) noexcept {
  if (bucket < kExactBelow) return bucket;
  const std::uint64_t sub = kSubBuckets + ((bucket - kExactBelow) & (kSubBuckets - 1));
  return sub << (exponent_of(bucket) - kSubBucketBits);
}

std::uint64_t LatencyHistogram::bucket_highest(std::size_t bucket) noexcept {
  if (bucket < kExactBelow) return bucket;
  return bucket_lowest(bucket) + (std::uint64_t{1} << (exponent_of(bucket) - kSubBucketBits)) - 1;
}

double LatencyHistogram::bucket_midpoint(std::size_t bucket) noexcept {
  const std::uint64_t lowest = bucket_lowest(bucket);
  return static_cast<double>(lowest) +
         static_cast<double>(bucket_highest(bucket) - lowest) / 2.0;
}

void LatencyHistogram::record(std::uint64_t us) noexcept {
  if (us < min_.load(std::memory_order_relaxed)) min_.store(us, std::memory_order_relaxed);
  if (us > max_.load(std::memory_order_relaxed)) max_.store(us, std::memory_order_relaxed);
  add(sum_, us);
  // Released after the min and max: a fold that reads this count reads a
  // min and max that cover `us`.
  std::atomic<std::uint64_t>& bucket = buckets_[bucket_of(us)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  add(count_, 1);
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  // Read first, the max bounds the buckets in use: a value recorded after
  // this read lands in a bucket the scan reads, or is left out.
  const std::size_t top = bucket_of(other.max_.load(std::memory_order_relaxed));
  std::uint64_t n = 0;
  for (std::size_t i = 0; i <= top; ++i) {
    const std::uint64_t in_bucket = other.buckets_[i].load(std::memory_order_acquire);
    if (in_bucket == 0) continue;
    add(buckets_[i], in_bucket);
    n += in_bucket;
  }
  if (n == 0) return;
  const std::uint64_t lowest = other.min_.load(std::memory_order_relaxed);
  const std::uint64_t highest = other.max_.load(std::memory_order_relaxed);
  if (lowest < min_.load(std::memory_order_relaxed)) {
    min_.store(lowest, std::memory_order_relaxed);
  }
  if (highest > max_.load(std::memory_order_relaxed)) {
    max_.store(highest, std::memory_order_relaxed);
  }
  add(sum_, other.sum_.load(std::memory_order_relaxed));
  add(count_, n);
}

double LatencyHistogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double LatencyHistogram::order_statistic(std::uint64_t k) const noexcept {
  const auto lowest = static_cast<double>(min_.load(std::memory_order_relaxed));
  const auto highest = static_cast<double>(max());
  if (k == 0) return lowest;
  if (k + 1 >= count()) return highest;
  std::uint64_t seen = 0;
  const std::size_t top = bucket_of(max());
  for (std::size_t i = 0; i <= top; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > k) return std::min(std::max(bucket_midpoint(i), lowest), highest);
  }
  return highest;
}

double LatencyHistogram::percentile(double p) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(n - 1);
  const auto lo_idx = static_cast<std::uint64_t>(rank);
  const std::uint64_t hi_idx = std::min(lo_idx + 1, n - 1);
  const double frac = rank - static_cast<double>(lo_idx);
  return order_statistic(lo_idx) * (1.0 - frac) + order_statistic(hi_idx) * frac;
}

void LatencyHistogram::coarse_counts(std::span<const double> bounds,
                                     std::span<std::uint64_t> out) const noexcept {
  std::fill(out.begin(), out.end(), 0);
  if (count() == 0) return;
  const std::size_t top = bucket_of(max());
  std::size_t coarse = 0;
  for (std::size_t i = 0; i <= top; ++i) {
    const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    // The top bucket holds every value past its range too.
    const double highest = i == kBuckets - 1 ? std::numeric_limits<double>::infinity()
                                             : static_cast<double>(bucket_highest(i));
    while (coarse < bounds.size() && bounds[coarse] < highest) ++coarse;
    out[coarse] += in_bucket;
  }
}

}  // namespace nv::util
