#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "util/expected.h"
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

TEST(Samples, MergeEqualsConcatenation) {
  Samples a;
  Samples b;
  Samples all;
  for (int i = 1; i <= 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 51; i <= 100; ++i) {
    b.add(i);
    all.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.median(), all.median(), 1e-9);
  EXPECT_NEAR(a.percentile(95), all.percentile(95), 1e-9);
  // The merged-from collector is untouched.
  EXPECT_EQ(b.count(), 50u);
}

TEST(Samples, MergeEmptyIsNoOpEitherWay) {
  Samples s;
  s.add(1.0);
  s.add(3.0);
  Samples empty;
  s.merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.median(), 2.0);
}

TEST(Samples, MergeAfterPercentileQueryResorts) {
  // percentile() sorts lazily; a merge after a query must invalidate the
  // sorted state so later percentiles see the combined, re-sorted samples.
  Samples s;
  s.add(10.0);
  s.add(30.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 30.0);
  Samples more;
  more.add(20.0);
  more.add(40.0);
  s.merge(more);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
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
