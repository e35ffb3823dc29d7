// Unit tests for src/common: status, rng, metrics, strings, time.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

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

// Handles against the by-name calls: one recorder records every step
// through handles, the other by name, with Clear and both resets in
// between. Handles are resolved up front (some never recorded), and
// again mid-walk, so two handles often share one slot and a slot often
// outlives the entry it cached. After every step both recorders read
// the same.
TEST(MetricsRecorderTest, HandlesMatchByNameReference) {
  const std::vector<std::string> names = {
      "a", "a.b", "a.c", "b", "client.x.retries_total",
      "client.x.giveups_total", "client.y.retries_total", "z"};
  const std::vector<std::string> prefixes = {"a", "a.", "client.x.",
                                             "client.", "q"};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    MetricsRecorder by_handle;
    MetricsRecorder by_name;
    std::vector<MetricsRecorder::Counter> counters;
    std::vector<MetricsRecorder::Busy> busy;
    std::vector<MetricsRecorder::Span> spans;
    std::vector<MetricsRecorder::Samples> samples;
    auto resolve = [&](std::size_t i) {
      counters[i] = by_handle.ResolveCounter(names[i]);
      busy[i] = by_handle.ResolveBusy(names[i]);
      spans[i] = by_handle.ResolveSpan(names[i]);
      samples[i] = by_handle.ResolveSamples(names[i]);
    };
    counters.resize(names.size());
    busy.resize(names.size());
    spans.resize(names.size());
    samples.resize(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) resolve(i);
    // Resolved, never recorded.
    by_handle.ResolveCounter("never");
    by_handle.ResolveBusy("never");
    by_handle.ResolveSpan("never");
    by_handle.ResolveSamples("never");

    for (int step = 0; step < 400; ++step) {
      const std::size_t i = rng.UniformInt(names.size());
      const std::string& name = names[i];
      const std::int64_t v = rng.UniformRange(-5, 50);
      switch (rng.UniformInt(11)) {
        case 0:
        case 1:
          counters[i].Add(v);
          by_name.Count(name, v);
          break;
        case 2:
          counters[i].RecordMax(v);
          by_name.RecordMax(name, v);
          break;
        case 3:
          busy[i].Add(v);
          by_name.AddBusy(name, v);
          break;
        case 4:
          spans[i].MarkStart(v);
          by_name.MarkStart(name, v);
          break;
        case 5:
          spans[i].MarkStop(v);
          by_name.MarkStop(name, v);
          break;
        case 6:
          if (rng.Bernoulli(0.5)) {
            samples[i].RecordValue(static_cast<double>(v));
            by_name.RecordValue(name, static_cast<double>(v));
          } else {
            samples[i].RecordDuration(Milliseconds(v));
            by_name.RecordDuration(name, Milliseconds(v));
          }
          break;
        case 7:
          by_handle.ResetCounter(name);
          by_name.ResetCounter(name);
          break;
        case 8: {
          const std::string& prefix = prefixes[rng.UniformInt(prefixes.size())];
          by_handle.ResetCounterPrefix(prefix);
          by_name.ResetCounterPrefix(prefix);
          break;
        }
        case 9:
          if (rng.Bernoulli(0.2)) {
            by_handle.Clear();
            by_name.Clear();
          }
          break;
        case 10:
          resolve(i);  // the same slot again
          break;
      }
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      ASSERT_EQ(by_handle.counters(), by_name.counters()) << where;
      ASSERT_EQ(by_handle.samples().size(), by_name.samples().size()) << where;
      for (const auto& [sample_name, sample] : by_name.samples()) {
        ASSERT_TRUE(by_handle.HasSample(sample_name)) << where;
        ASSERT_EQ(by_handle.GetSample(sample_name).values(), sample.values())
            << where;
      }
      for (const std::string& n : names) {
        ASSERT_EQ(by_handle.GetBusy(n), by_name.GetBusy(n)) << where;
        ASSERT_EQ(by_handle.GetSpan(n), by_name.GetSpan(n)) << where;
      }
    }
    EXPECT_EQ(by_handle.counters().count("never"), 0u);
    EXPECT_FALSE(by_handle.HasSample("never"));
  }
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
