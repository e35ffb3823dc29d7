// Tests for the FaaS platform layer: gateway routing/queueing, the
// autoscaling policy, the Dirigent clean-slate backend, and the full
// platform on both cluster-manager modes.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "faas/backend.h"
#include "faas/platform.h"

namespace kd::faas {
namespace {

FunctionSpec Fn(const std::string& name, int concurrency = 1) {
  FunctionSpec spec;
  spec.name = name;
  spec.concurrency = concurrency;
  return spec;
}

// --- Gateway -----------------------------------------------------------

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest() : gateway_(engine_, /*route_latency=*/0) {}
  sim::Engine engine_;
  Gateway gateway_;
};

TEST_F(GatewayTest, DispatchesToFreeInstance) {
  const Gateway::FunctionId f = gateway_.RegisterFunction(Fn("f"));
  gateway_.UpdateEndpoints("f", {"10.0.0.1"});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(10)});
  EXPECT_EQ(gateway_.Executing(f), 1);
  engine_.Run();
  ASSERT_EQ(gateway_.records().size(), 1u);
  const RequestRecord& r = gateway_.records()[0];
  EXPECT_EQ(r.SchedulingLatency(), 0);
  EXPECT_EQ(r.E2eLatency(), Milliseconds(10));
  EXPECT_FALSE(r.cold_start);
}

TEST_F(GatewayTest, QueuesWhenNoCapacity) {
  const Gateway::FunctionId f = gateway_.RegisterFunction(Fn("f"));
  gateway_.UpdateEndpoints("f", {"a"});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(100)});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(100)});
  EXPECT_EQ(gateway_.Executing(f), 1);
  EXPECT_EQ(gateway_.Queued(f), 1);
  EXPECT_EQ(gateway_.Demand("f"), 2);
  engine_.Run();
  ASSERT_EQ(gateway_.records().size(), 2u);
  // Second request waited for the first to finish.
  EXPECT_EQ(gateway_.records()[1].SchedulingLatency(), Milliseconds(100));
  EXPECT_TRUE(gateway_.records()[1].cold_start);
  EXPECT_EQ(gateway_.queued_starts(), 1u);
}

TEST_F(GatewayTest, ConcurrencySharesInstance) {
  const Gateway::FunctionId f =
      gateway_.RegisterFunction(Fn("f", /*concurrency=*/2));
  gateway_.UpdateEndpoints("f", {"a"});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(50)});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(50)});
  EXPECT_EQ(gateway_.Executing(f), 2);
  EXPECT_EQ(gateway_.Queued(f), 0);
}

TEST_F(GatewayTest, NewEndpointDrainsQueue) {
  const Gateway::FunctionId f = gateway_.RegisterFunction(Fn("f"));
  gateway_.Invoke({"f", engine_.now(), Milliseconds(10)});
  EXPECT_EQ(gateway_.Queued(f), 1);
  engine_.RunFor(Milliseconds(30));  // cold wait
  gateway_.UpdateEndpoints("f", {"a"});
  engine_.Run();
  ASSERT_EQ(gateway_.records().size(), 1u);
  EXPECT_EQ(gateway_.records()[0].SchedulingLatency(), Milliseconds(30));
  EXPECT_TRUE(gateway_.records()[0].cold_start);
}

TEST_F(GatewayTest, RetiredInstanceTakesNoNewWorkButDrains) {
  const Gateway::FunctionId f = gateway_.RegisterFunction(Fn("f"));
  gateway_.UpdateEndpoints("f", {"a"});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(100)});
  gateway_.UpdateEndpoints("f", {});  // scaled to zero
  EXPECT_EQ(gateway_.EndpointCount("f"), 0u);
  gateway_.Invoke({"f", engine_.now(), Milliseconds(10)});
  EXPECT_EQ(gateway_.Queued(f), 1);  // not routed to the retired one
  engine_.Run();
  // First request completed on the draining instance.
  ASSERT_GE(gateway_.records().size(), 1u);
  EXPECT_EQ(gateway_.records()[0].E2eLatency(), Milliseconds(100));
}

TEST_F(GatewayTest, LeastLoadedRouting) {
  const Gateway::FunctionId f = gateway_.RegisterFunction(Fn("f", 4));
  gateway_.UpdateEndpoints("f", {"a", "b"});
  for (int i = 0; i < 4; ++i) {
    gateway_.Invoke({"f", engine_.now(), Seconds(1)});
  }
  EXPECT_EQ(gateway_.Executing(f), 4);
  EXPECT_EQ(gateway_.Queued(f), 0);  // spread 2+2 across instances
}

TEST_F(GatewayTest, OnQueuedFires) {
  gateway_.RegisterFunction(Fn("f"));
  int fired = 0;
  gateway_.set_on_queued([&](const std::string&) { ++fired; });
  gateway_.Invoke({"f", engine_.now(), Milliseconds(1)});
  EXPECT_EQ(fired, 1);
}

TEST_F(GatewayTest, RegisteringTwiceKeepsTheHandle) {
  const Gateway::FunctionId f = gateway_.RegisterFunction(Fn("f"));
  const Gateway::FunctionId g = gateway_.RegisterFunction(Fn("g"));
  EXPECT_NE(f, g);
  // The second registration replaces the spec under the same handle.
  EXPECT_EQ(gateway_.RegisterFunction(Fn("f", /*concurrency=*/2)), f);
  gateway_.UpdateEndpoints("f", {"a"});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(10)});
  gateway_.Invoke({"f", engine_.now(), Milliseconds(10)});
  EXPECT_EQ(gateway_.Executing(f), 2);
  EXPECT_EQ(gateway_.Executing(g), 0);
}

// The handle's counts add up to the by-name Demand, through queueing,
// retirement and drain, and the requeue of an abrupt instance loss.
TEST_F(GatewayTest, HandleCountsMatchByName) {
  gateway_.RegisterFunction(Fn("other"));
  const Gateway::FunctionId f = gateway_.RegisterFunction(Fn("f"));
  std::vector<std::string> signalled;
  gateway_.set_on_queued(
      [&](const std::string& fn) { signalled.push_back(fn); });
  const auto expect_counts = [&](std::int64_t queued, std::int64_t executing,
                                 const char* where) {
    SCOPED_TRACE(where);
    EXPECT_EQ(gateway_.Queued(f), queued);
    EXPECT_EQ(gateway_.Executing(f), executing);
    EXPECT_EQ(gateway_.Demand("f"), queued + executing);
  };

  gateway_.UpdateEndpoints("f", {"a", "b"});
  for (int i = 0; i < 3; ++i) {
    gateway_.Invoke({"f", engine_.now(), Milliseconds(100)});
  }
  expect_counts(1, 2, "two routed, one queued");
  EXPECT_EQ(signalled, std::vector<std::string>{"f"});

  gateway_.UpdateEndpoints("f", {"b"});  // "a" retires and drains
  engine_.RunFor(Milliseconds(50));
  gateway_.FailInstances({"b"});  // its request goes back to the head
  expect_counts(2, 1, "b failed, a draining");

  engine_.RunFor(Milliseconds(60));  // "a" drained and dropped
  expect_counts(2, 0, "a drained");
  ASSERT_EQ(gateway_.records().size(), 1u);

  gateway_.UpdateEndpoints("f", {"c"});
  expect_counts(1, 1, "c took the requeued request");
  engine_.Run();
  expect_counts(0, 0, "all done");
  EXPECT_EQ(gateway_.records().size(), 3u);
  EXPECT_EQ(gateway_.requeued_on_failure(), 1u);
}

// A request on an instance that fails is requeued; its completion
// timer must then settle nothing, even when an instance with the same
// address is back by the time it fires. The instance may have been
// retired and draining when it failed.
TEST_F(GatewayTest, CompletionOnFailedInstanceSettlesNothing) {
  for (const bool draining : {false, true}) {
    SCOPED_TRACE(draining ? "draining" : "serving");
    sim::Engine engine;
    Gateway gateway(engine, /*route_latency=*/0);
    const Gateway::FunctionId f = gateway.RegisterFunction(Fn("f"));
    gateway.UpdateEndpoints("f", {"a"});
    gateway.Invoke({"f", engine.now(), Milliseconds(100)});  // ends at 100
    if (draining) gateway.UpdateEndpoints("f", {});  // "a" retires
    gateway.FailInstances({"a"});
    engine.RunFor(Milliseconds(30));
    gateway.UpdateEndpoints("f", {"a"});  // the requeued request: 30-130
    engine.RunFor(Milliseconds(10));
    gateway.Invoke({"f", engine.now(), Milliseconds(10)});  // waits
    engine.RunFor(Milliseconds(70));  // t=110: the dead timer has fired
    EXPECT_EQ(gateway.Executing(f), 1);
    EXPECT_EQ(gateway.Queued(f), 1);
    EXPECT_TRUE(gateway.records().empty());

    engine.Run();
    ASSERT_EQ(gateway.records().size(), 2u);
    EXPECT_EQ(gateway.records()[0].started, Milliseconds(30));
    EXPECT_EQ(gateway.records()[0].completed, Milliseconds(130));
    EXPECT_EQ(gateway.records()[1].started, Milliseconds(130));
    EXPECT_EQ(gateway.Executing(f), 0);
  }
}

// --- DirigentBackend ------------------------------------------------------

TEST(DirigentBackendTest, ScaleUpDeliversEndpointsFast) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, /*num_nodes=*/4);
  std::vector<std::string> latest;
  backend.SetEndpointSink(
      [&](const std::string&, const std::vector<std::string>& addresses) {
        latest = addresses;
      });
  backend.RegisterFunction(Fn("f"));
  backend.ScaleTo("f", 5);
  engine.Run();
  EXPECT_EQ(latest.size(), 5u);
  // Clean-slate control plane: well under 100 ms for 5 instances.
  EXPECT_LT(engine.now(), Milliseconds(100));
}

TEST(DirigentBackendTest, ScaleDownRemovesEndpoints) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, 4);
  std::vector<std::string> latest;
  backend.SetEndpointSink(
      [&](const std::string&, const std::vector<std::string>& a) {
        latest = a;
      });
  backend.RegisterFunction(Fn("f"));
  backend.ScaleTo("f", 5);
  engine.Run();
  backend.ScaleTo("f", 1);
  engine.Run();
  EXPECT_EQ(latest.size(), 1u);
}

TEST(DirigentBackendTest, CapacityBound) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, /*num_nodes=*/1,
                          /*node_cpu_milli=*/1000);  // 4 pods of 250m
  std::vector<std::string> latest;
  backend.SetEndpointSink(
      [&](const std::string&, const std::vector<std::string>& a) {
        latest = a;
      });
  backend.RegisterFunction(Fn("f"));
  backend.ScaleTo("f", 10);
  engine.Run();
  EXPECT_EQ(latest.size(), 4u);
}

// --- Platform end-to-end ---------------------------------------------------

class PlatformTest : public ::testing::TestWithParam<controllers::Mode> {};

TEST_P(PlatformTest, ColdThenWarmInvocations) {
  sim::Engine engine;
  cluster::ClusterConfig config;
  config.mode = GetParam();
  config.num_nodes = 4;
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();

  ClusterBackend backend(cluster);
  Platform platform(engine, backend, PolicyParams::Knative());
  platform.RegisterFunction(Fn("f"));
  platform.Start();
  engine.RunFor(Milliseconds(100));

  // Cold invocation: queues, triggers scale-up, runs.
  platform.Invoke("f", Milliseconds(50));
  engine.RunFor(Seconds(30));
  ASSERT_EQ(platform.gateway().records().size(), 1u);
  const RequestRecord cold = platform.gateway().records()[0];
  EXPECT_TRUE(cold.cold_start);
  EXPECT_GT(cold.SchedulingLatency(), Milliseconds(10));

  // Warm invocation: the instance is up; near-zero scheduling latency.
  platform.Invoke("f", Milliseconds(50));
  engine.RunFor(Seconds(5));
  ASSERT_EQ(platform.gateway().records().size(), 2u);
  const RequestRecord warm = platform.gateway().records()[1];
  EXPECT_FALSE(warm.cold_start);
  EXPECT_LT(warm.SchedulingLatency(), Milliseconds(5));

  // Kd's cold start must beat K8s's by a wide margin; assert mode
  // specific bounds.
  if (GetParam() == controllers::Mode::kKd) {
    // Dominated by the real sandbox cold start (~800 ms), not the
    // control plane.
    EXPECT_LT(cold.SchedulingLatency(), Milliseconds(1500));
  } else {
    // The K8s path stacks API round trips on top of the cold start.
    EXPECT_GT(cold.SchedulingLatency(), Milliseconds(800));
  }
}

TEST_P(PlatformTest, ScaleToZeroAfterIdle) {
  sim::Engine engine;
  cluster::ClusterConfig config;
  config.mode = GetParam();
  config.num_nodes = 2;
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();

  ClusterBackend backend(cluster);
  PolicyParams params = PolicyParams::Knative();
  params.scale_down_window = Seconds(5);
  Platform platform(engine, backend, params);
  platform.RegisterFunction(Fn("f"));
  platform.Start();

  platform.Invoke("f", Milliseconds(20));
  engine.RunFor(Seconds(30));
  EXPECT_EQ(platform.gateway().records().size(), 1u);
  // Idle past the window: scaled to zero.
  engine.RunFor(Seconds(60));
  EXPECT_EQ(cluster.TotalReadyPods(), 0u);
  EXPECT_EQ(platform.gateway().EndpointCount("f"), 0u);
}

TEST_P(PlatformTest, BurstScalesOut) {
  sim::Engine engine;
  cluster::ClusterConfig config;
  config.mode = GetParam();
  config.num_nodes = 8;
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();

  ClusterBackend backend(cluster);
  Platform platform(engine, backend, PolicyParams::Knative());
  platform.RegisterFunction(Fn("f"));
  platform.Start();
  engine.RunFor(Milliseconds(100));

  // 30 concurrent long requests demand ~30 instances.
  for (int i = 0; i < 30; ++i) platform.Invoke("f", Seconds(20));
  engine.RunFor(Seconds(15));  // within the scale-down window
  EXPECT_GE(cluster.TotalReadyPods(), 25u);
  engine.RunFor(Seconds(105));
  EXPECT_EQ(platform.gateway().records().size(), 30u);
  // And after the demand subsided + hysteresis, capacity was released.
  EXPECT_LT(cluster.TotalReadyPods(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Modes, PlatformTest,
                         ::testing::Values(controllers::Mode::kK8s,
                                           controllers::Mode::kKd),
                         [](const ::testing::TestParamInfo<controllers::Mode>&
                                param_info) {
                           return controllers::ModeName(param_info.param);
                         });

TEST(PlatformDirigentTest, EndToEndOnCleanSlate) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, 8);
  Platform platform(engine, backend, PolicyParams::Dirigent());
  platform.RegisterFunction(Fn("f"));
  platform.Start();

  platform.Invoke("f", Milliseconds(50));
  engine.RunFor(Seconds(5));
  ASSERT_EQ(platform.gateway().records().size(), 1u);
  // Clean-slate cold start: tens of milliseconds.
  EXPECT_LT(platform.gateway().records()[0].SchedulingLatency(),
            Milliseconds(200));
}

TEST(ReportTest, GroupsByFunction) {
  sim::Engine engine;
  Gateway gateway(engine, 0);
  gateway.RegisterFunction(Fn("a"));
  gateway.RegisterFunction(Fn("b", 4));
  gateway.UpdateEndpoints("a", {"x"});
  gateway.UpdateEndpoints("b", {"y"});
  // 'a': two requests back to back (second slowed 2x);
  // 'b': one clean request.
  gateway.Invoke({"a", engine.now(), Milliseconds(100)});
  gateway.Invoke({"a", engine.now(), Milliseconds(100)});
  gateway.Invoke({"b", engine.now(), Milliseconds(100)});
  engine.Run();

  CostModel cost = CostModel::Default();
  DirigentBackend backend(engine, cost, 1);
  // Build the report through a platform-shaped aggregation by reusing
  // the same math here.
  Sample slowdown;
  std::map<std::string, std::pair<double, int>> agg;
  for (const RequestRecord& r : gateway.records()) {
    const Duration requested = r.completed - r.started;
    agg[r.function].first += r.Slowdown(requested);
    agg[r.function].second += 1;
  }
  for (auto& [fn, v] : agg) slowdown.Add(v.first / v.second);
  ASSERT_EQ(slowdown.count(), 2u);
  EXPECT_NEAR(slowdown.Min(), 1.0, 1e-9);   // 'b'
  EXPECT_NEAR(slowdown.Max(), 1.5, 1e-9);   // 'a': (1 + 2) / 2
}

}  // namespace
}  // namespace kd::faas
