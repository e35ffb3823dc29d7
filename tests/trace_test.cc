// Tests for the synthetic Azure-like trace generator: volume, skew,
// duration marginals, burst structure, determinism.
#include <gtest/gtest.h>

#include <algorithm>

#include "trace/azure.h"

namespace kd::trace {
namespace {

TEST(AzureTraceTest, VolumeNearTarget) {
  TraceConfig config;
  config.num_functions = 100;
  config.length = Minutes(10);
  config.target_invocations = 20'000;
  AzureTrace trace = AzureTrace::Generate(config);
  // Poisson sampling + bursts: within 15% of target.
  EXPECT_GT(trace.events().size(), 17'000u);
  EXPECT_LT(trace.events().size(), 25'000u);
}

TEST(AzureTraceTest, EventsSortedAndInRange) {
  TraceConfig config;
  config.num_functions = 50;
  config.length = Minutes(5);
  config.target_invocations = 5'000;
  AzureTrace trace = AzureTrace::Generate(config);
  Time prev = 0;
  for (const TraceEvent& e : trace.events()) {
    EXPECT_GE(e.at, prev);
    prev = e.at;
    EXPECT_LT(e.at, config.length);
    EXPECT_GE(e.function, 0);
    EXPECT_LT(e.function, config.num_functions);
    EXPECT_GE(e.duration, config.min_duration);
    EXPECT_LE(e.duration, config.max_duration);
  }
}

TEST(AzureTraceTest, Deterministic) {
  TraceConfig config;
  config.num_functions = 30;
  config.length = Minutes(2);
  config.target_invocations = 1'000;
  AzureTrace a = AzureTrace::Generate(config);
  AzureTrace b = AzureTrace::Generate(config);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].function, b.events()[i].function);
  }
  config.seed = 99;
  AzureTrace c = AzureTrace::Generate(config);
  EXPECT_NE(a.events().size(), c.events().size());
}

TEST(AzureTraceTest, RatesAreHeavyTailed) {
  TraceConfig config;
  config.num_functions = 500;
  config.length = Minutes(30);
  AzureTrace trace = AzureTrace::Generate(config);
  // Per-function arrival rates (1/s), observed from the generated events.
  std::vector<double> rates(static_cast<std::size_t>(config.num_functions));
  for (const TraceEvent& e : trace.events()) {
    rates[static_cast<std::size_t>(e.function)] += 1.0;
  }
  for (double& r : rates) r /= ToSeconds(trace.length());
  std::sort(rates.begin(), rates.end());
  // Top 10% of functions carry the majority of the traffic.
  double total = 0, top = 0;
  for (double r : rates) total += r;
  for (std::size_t i = rates.size() * 9 / 10; i < rates.size(); ++i) {
    top += rates[i];
  }
  EXPECT_GT(top / total, 0.5);
  // And most functions are cold (< 1 invocation/minute).
  const std::size_t cold = static_cast<std::size_t>(
      std::count_if(rates.begin(), rates.end(),
                    [](double r) { return r < 1.0 / 60.0; }));
  EXPECT_GT(cold, rates.size() / 3);
}

TEST(AzureTraceTest, DurationsSubSecondMedian) {
  TraceConfig config;
  config.num_functions = 200;
  config.length = Minutes(10);
  config.target_invocations = 50'000;
  AzureTrace trace = AzureTrace::Generate(config);
  std::vector<Duration> durations;
  for (const TraceEvent& e : trace.events()) durations.push_back(e.duration);
  std::sort(durations.begin(), durations.end());
  const Duration median = durations[durations.size() / 2];
  EXPECT_GT(median, Milliseconds(50));
  EXPECT_LT(median, Seconds(5));
}

TEST(AzureTraceTest, BurstsCreateSpikes) {
  TraceConfig config;
  config.num_functions = 300;
  config.length = Minutes(30);
  config.target_invocations = 30'000;
  config.burst_function_fraction = 0.2;
  config.burst_invocations_per_function = 4;
  AzureTrace trace = AzureTrace::Generate(config);
  auto counts = trace.PerMinuteCounts();
  ASSERT_FALSE(counts.empty());
  std::uint64_t min_count = *std::min_element(counts.begin(),
                                              counts.end() - 1);
  std::uint64_t max_count = *std::max_element(counts.begin(), counts.end());
  // Burst minutes are visibly above the floor.
  EXPECT_GT(max_count, min_count + min_count / 4);
}

TEST(AzureTraceTest, FunctionNamesStable) {
  TraceConfig config;
  AzureTrace trace = AzureTrace::Generate(config);
  EXPECT_EQ(trace.FunctionName(0), "fn-0000");
  EXPECT_EQ(trace.FunctionName(123), "fn-0123");
}

TEST(ColdStartCurveTest, PeaksAboveFiftyThousand) {
  auto curve = ColdStartRateCurve();
  ASSERT_EQ(curve.size(), 24u * 60u);
  const double max_rate = *std::max_element(curve.begin(), curve.end());
  EXPECT_GT(max_rate, 50'000.0);  // the Fig. 3b headline
  for (double v : curve) EXPECT_GE(v, 0.0);
}

TEST(ColdStartCurveTest, DiurnalShape) {
  auto curve = ColdStartRateCurve();
  // Average of the first hour (trough) vs mid-day (peak of the cosine).
  double night = 0, midday = 0;
  for (int m = 0; m < 60; ++m) night += curve[static_cast<std::size_t>(m)];
  for (int m = 12 * 60; m < 13 * 60; ++m) {
    midday += curve[static_cast<std::size_t>(m)];
  }
  EXPECT_GT(midday, night * 2);
}

}  // namespace
}  // namespace kd::trace
