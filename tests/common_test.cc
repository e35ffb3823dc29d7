// Unit tests for src/common: status, rng, metrics, strings, time.
#include <gtest/gtest.h>

#include <set>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/time.h"

namespace kd {
namespace {

TEST(TimeTest, UnitConstruction) {
  EXPECT_EQ(Milliseconds(3), 3'000'000);
  EXPECT_EQ(Seconds(2), 2'000'000'000);
  EXPECT_EQ(Microseconds(7), 7'000);
  EXPECT_EQ(MillisecondsF(0.5), 500'000);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(500), "500ns");
  EXPECT_EQ(FormatDuration(Microseconds(12)), "12us");
  EXPECT_EQ(FormatDuration(Milliseconds(3)), "3ms");
  EXPECT_EQ(FormatDuration(Seconds(4)), "4s");
}

TEST(TimeTest, ConversionRoundTrip) {
  EXPECT_DOUBLE_EQ(ToMillis(Milliseconds(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = ConflictError("resourceVersion mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  EXPECT_EQ(s.ToString(), "CONFLICT: resourceVersion mismatch");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PermissionDeniedError("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("pod"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(9));
  ASSERT_TRUE(v.ok());
  auto p = std::move(v).value();
  EXPECT_EQ(*p, 9);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(10), 10u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, ParetoAtLeastScale) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(SampleTest, QuantilesExact) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Min(), 1);
  EXPECT_DOUBLE_EQ(s.Max(), 100);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.99), 99.01, 0.05);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(SampleTest, EmptySampleSafe) {
  Sample s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Median(), 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_TRUE(s.Cdf().empty());
}

TEST(SampleTest, CdfMonotone) {
  Sample s;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) s.Add(rng.UniformDouble());
  auto cdf = s.Cdf(50);
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
}

TEST(SampleTest, AddAfterQuantileStillSorted) {
  Sample s;
  s.Add(5);
  s.Add(1);
  EXPECT_DOUBLE_EQ(s.Min(), 1);
  s.Add(0.5);
  EXPECT_DOUBLE_EQ(s.Min(), 0.5);  // re-sorts after mutation
}

TEST(MetricsRecorderTest, Counters) {
  MetricsRecorder m;
  m.Count("pods");
  m.Count("pods", 4);
  EXPECT_EQ(m.GetCount("pods"), 5);
  EXPECT_EQ(m.GetCount("missing"), 0);
}

TEST(MetricsRecorderTest, DurationsRecordedInMillis) {
  MetricsRecorder m;
  m.RecordDuration("api_call", Milliseconds(12));
  EXPECT_DOUBLE_EQ(m.GetSample("api_call").Mean(), 12.0);
}

TEST(MetricsRecorderTest, SpanTracksMakespan) {
  MetricsRecorder m;
  m.MarkStart("scheduler", Milliseconds(10));
  m.MarkStop("scheduler", Milliseconds(25));
  m.MarkStart("scheduler", Milliseconds(5));
  m.MarkStop("scheduler", Milliseconds(20));
  EXPECT_EQ(m.GetSpan("scheduler"), Milliseconds(20));
  EXPECT_EQ(m.GetFirstStart("scheduler"), Milliseconds(5));
  EXPECT_EQ(m.GetLastStop("scheduler"), Milliseconds(25));
}

TEST(MetricsRecorderTest, SpanUnmarkedIsZero) {
  MetricsRecorder m;
  EXPECT_EQ(m.GetSpan("nothing"), 0);
}

TEST(MetricsRecorderTest, BusyAccumulates) {
  MetricsRecorder m;
  m.AddBusy("rs", Milliseconds(2));
  m.AddBusy("rs", Milliseconds(3));
  EXPECT_EQ(m.GetBusy("rs"), Milliseconds(5));
}

TEST(MetricsRecorderTest, ClearResetsAll) {
  MetricsRecorder m;
  m.Count("a");
  m.RecordValue("b", 1.0);
  m.MarkStart("c", 1);
  m.Clear();
  EXPECT_EQ(m.GetCount("a"), 0);
  EXPECT_TRUE(m.GetSample("b").empty());
  EXPECT_EQ(m.GetSpan("c"), 0);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("pod-%d on %s", 3, "node1"), "pod-3 on node1");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringsTest, StrSplit) {
  auto parts = StrSplit("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(StrSplit("", '.').size(), 1u);
  EXPECT_EQ(StrSplit("a..b", '.').size(), 3u);
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("spec.nodeName", "spec"));
  EXPECT_FALSE(StartsWith("spec", "spec.nodeName"));
}

TEST(StringsTest, StrJoinSkipsEmpty) {
  EXPECT_EQ(StrJoin({"a", "", "b"}, "."), "a.b");
  EXPECT_EQ(StrJoin({}, "."), "");
}

}  // namespace
}  // namespace kd
