#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "util/expected.h"
#include "util/latency_histogram.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace nv::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng{9};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{11};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng{13};
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / 20000.0, 4.0, 0.15);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a{5};
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng{17};
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(10, 3);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Samples, PercentilesInterpolate) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.2);
}

TEST(Samples, PercentileEdgeCases) {
  Samples empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  Samples one;
  one.add(7.5);
  EXPECT_DOUBLE_EQ(one.percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(one.percentile(50), 7.5);
  EXPECT_DOUBLE_EQ(one.percentile(100), 7.5);
}

TEST(LatencyHistogram, ValuesBelow128AreExact) {
  LatencyHistogram histogram;
  Samples samples;
  for (std::uint64_t us = 0; us < LatencyHistogram::kExactBelow; ++us) {
    EXPECT_EQ(LatencyHistogram::bucket_of(us), us);
    EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_midpoint(us), static_cast<double>(us));
    // Skewed, so the order statistics are not evenly spaced.
    for (std::uint64_t copy = 0; copy <= us % 3; ++copy) {
      histogram.record(us);
      samples.add(static_cast<double>(us));
    }
  }
  ASSERT_EQ(histogram.count(), samples.count());
  EXPECT_DOUBLE_EQ(histogram.mean(), samples.mean());
  for (const double p : {0.0, 1.0, 10.0, 33.3, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(histogram.percentile(p), samples.percentile(p)) << "p" << p;
  }
}

TEST(LatencyHistogram, EveryValueIsWithinOnePart128OfItsBucketMidpoint) {
  ASSERT_EQ(LatencyHistogram::kBuckets, 2048u);
  EXPECT_EQ(LatencyHistogram::bucket_lowest(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_highest(LatencyHistogram::kBuckets - 1),
            (std::uint64_t{1} << LatencyHistogram::kTopExponent) - 1);
  for (std::size_t bucket = 0; bucket < LatencyHistogram::kBuckets; ++bucket) {
    const std::uint64_t lowest = LatencyHistogram::bucket_lowest(bucket);
    const std::uint64_t highest = LatencyHistogram::bucket_highest(bucket);
    // The buckets tile [0, 2^37) in order.
    ASSERT_EQ(LatencyHistogram::bucket_of(lowest), bucket);
    ASSERT_EQ(LatencyHistogram::bucket_of(highest), bucket);
    if (bucket + 1 < LatencyHistogram::kBuckets) {
      ASSERT_EQ(LatencyHistogram::bucket_lowest(bucket + 1), highest + 1);
    }
    // A bucket's ends are its values farthest from the midpoint.
    const double midpoint = LatencyHistogram::bucket_midpoint(bucket);
    for (const std::uint64_t us : {lowest, highest}) {
      if (us == 0) continue;
      ASSERT_LT(std::abs(midpoint - static_cast<double>(us)) / static_cast<double>(us),
                1.0 / 128.0)
          << "bucket " << bucket << " value " << us;
    }
  }
}

TEST(LatencyHistogram, FoldingTwoLanesEqualsOneHistogramFedTheirUnion) {
  LatencyHistogram lane_a;
  LatencyHistogram lane_b;
  LatencyHistogram union_fed;
  Rng rng{7};
  for (int i = 0; i < 5000; ++i) {
    // Spread from 0 to 2^40 us, so the values fill buckets at every scale,
    // the top one included.
    const std::uint64_t us = rng.next_u64() >> (24 + rng.next_u64() % 40);
    (i % 3 == 0 ? lane_a : lane_b).record(us);
    union_fed.record(us);
  }
  LatencyHistogram folded;
  folded.merge(lane_a);
  folded.merge(lane_b);
  EXPECT_EQ(folded.count(), union_fed.count());
  EXPECT_EQ(folded.sum(), union_fed.sum());
  EXPECT_EQ(folded.min(), union_fed.min());
  EXPECT_EQ(folded.max(), union_fed.max());
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    EXPECT_DOUBLE_EQ(folded.percentile(p), union_fed.percentile(p)) << "p" << p;
  }
  const std::array<double, 4> bounds = {10, 1000, 1e6, 1e12};
  std::array<std::uint64_t, bounds.size() + 1> folded_counts{};
  std::array<std::uint64_t, bounds.size() + 1> union_counts{};
  folded.coarse_counts(bounds, folded_counts);
  union_fed.coarse_counts(bounds, union_counts);
  EXPECT_EQ(folded_counts, union_counts);
}

TEST(LatencyHistogram, CountSumMinAndMaxAreExact) {
  LatencyHistogram histogram;
  const std::array<std::uint64_t, 5> values = {1'000'003, 3, 5'000, 123'456'789, 77};
  std::uint64_t sum = 0;
  for (const std::uint64_t us : values) {
    histogram.record(us);
    sum += us;
  }
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), sum);
  EXPECT_EQ(histogram.min(), 3u);
  EXPECT_EQ(histogram.max(), 123'456'789u);
  EXPECT_DOUBLE_EQ(histogram.mean(), static_cast<double>(sum) / 5.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(0), 3.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(100), 123'456'789.0);
  // The median, 5000, reads its bucket's midpoint.
  EXPECT_NEAR(histogram.percentile(50), 5000.0, 5000.0 / 128.0);
}

TEST(LatencyHistogram, AnEmptyHistogramReadsZero) {
  LatencyHistogram histogram;
  LatencyHistogram folded;
  folded.merge(histogram);
  for (const LatencyHistogram* h : {&histogram, &folded}) {
    EXPECT_EQ(h->count(), 0u);
    EXPECT_EQ(h->sum(), 0u);
    EXPECT_EQ(h->min(), 0u);
    EXPECT_EQ(h->max(), 0u);
    EXPECT_DOUBLE_EQ(h->mean(), 0.0);
    EXPECT_DOUBLE_EQ(h->percentile(50), 0.0);
    const std::array<double, 2> bounds = {1, 2};
    std::array<std::uint64_t, 3> counts = {9, 9, 9};
    h->coarse_counts(bounds, counts);
    EXPECT_EQ(counts, (std::array<std::uint64_t, 3>{0, 0, 0}));
  }
}

TEST(LatencyHistogram, AValuePastTheTopBucketClampsAndMaxStaysExact) {
  const std::uint64_t far = std::uint64_t{1} << 40;
  EXPECT_EQ(LatencyHistogram::bucket_of(far), LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(std::uint64_t{1} << LatencyHistogram::kTopExponent),
            LatencyHistogram::kBuckets - 1);
  LatencyHistogram histogram;
  histogram.record(5);
  histogram.record(far);
  histogram.record(far + 1);
  EXPECT_EQ(histogram.max(), far + 1);
  EXPECT_EQ(histogram.sum(), 2 * far + 6);
  EXPECT_DOUBLE_EQ(histogram.percentile(100), static_cast<double>(far + 1));
  // The middle value reads the top bucket's midpoint: past 2^37, only the
  // max is exact.
  EXPECT_DOUBLE_EQ(histogram.percentile(50),
                   LatencyHistogram::bucket_midpoint(LatencyHistogram::kBuckets - 1));
  const std::array<double, 1> bounds = {1e12};
  std::array<std::uint64_t, 2> counts{};
  histogram.coarse_counts(bounds, counts);
  EXPECT_EQ(counts, (std::array<std::uint64_t, 2>{1, 2}));
}

TEST(Strings, SplitAndJoin) {
  std::vector<std::string_view> fields;
  for (SplitCursor cursor("a:b::c", ':'); !cursor.done();) fields.push_back(cursor.next());
  EXPECT_EQ(fields, (std::vector<std::string_view>{"a", "b", "", "c"}));
  std::vector<std::string_view> tokens;
  std::string_view rest = "  a\tb  c ";
  for (std::string_view t = pop_token(rest); !t.empty(); t = pop_token(rest)) tokens.push_back(t);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_EQ(join({"x", "y"}, ", "), "x, y");
}

TEST(Strings, TrimAndLower) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_TRUE(iequals("LiStEn", "listen"));
  EXPECT_FALSE(iequals("listen", "listens"));
  EXPECT_FALSE(iequals("[", "{"));  // 0x5b and 0x7b differ by the case bit, but are no letters
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(parse_u64("42").value(), 42u);
  EXPECT_EQ(parse_u64("0x7FFFFFFF").value(), 0x7FFFFFFFu);
  EXPECT_FALSE(parse_u64("4x2").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_EQ(parse_i64("-17").value(), -17);
}

TEST(Strings, ParseU64RejectsValuesPastUint64Max) {
  EXPECT_EQ(parse_u64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_EQ(parse_u64("0xFFFFFFFFFFFFFFFF").value(), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // was 0
  EXPECT_FALSE(parse_u64("0x10000000000000000").has_value());
  EXPECT_FALSE(parse_u64("99999999999999999999999").has_value());
  EXPECT_EQ(parse_u64("000000000000000000000000042").value(), 42u);
  EXPECT_EQ(parse_uint<std::uint16_t>("65535").value(), 65535u);
  EXPECT_FALSE(parse_uint<std::uint16_t>("65536").has_value());
  EXPECT_FALSE(parse_uint<std::uint32_t>("4294967296").has_value());
}

TEST(Strings, ParseI64CoversItsRangeAndNoMore) {
  EXPECT_EQ(parse_i64("-9223372036854775808").value(), INT64_MIN);  // no negation of INT64_MIN
  EXPECT_EQ(parse_i64("9223372036854775807").value(), INT64_MAX);
  EXPECT_EQ(parse_i64("+9223372036854775807").value(), INT64_MAX);
  EXPECT_FALSE(parse_i64("-9223372036854775809").has_value());  // was INT64_MAX
  EXPECT_FALSE(parse_i64("9223372036854775808").has_value());
  EXPECT_FALSE(parse_i64("-18446744073709551616").has_value());
  EXPECT_EQ(parse_i64("-0").value(), 0);
}

TEST(Strings, FormatAndHex) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(hex32(0x7FFFFFFF), "0x7fffffff");
  EXPECT_EQ(replace_all("aXbXc", "X", "--"), "a--b--c");
}

TEST(Expected, ValueAndErrorPaths) {
  Expected<int, std::string> good(5);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(*good, 5);
  Expected<int, std::string> bad(Unexpected<std::string>{"boom"});
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "boom");
  EXPECT_EQ(bad.value_or(9), 9);
  EXPECT_THROW((void)bad.value(), std::logic_error);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"name", "value"});
  t.align_right(1);
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
}

}  // namespace
}  // namespace nv::util
