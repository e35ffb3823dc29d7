// Tests for the API server substrate: rate limiter, CRUD + optimistic
// concurrency, watch pub-sub, admission control, APF fair queueing,
// and cost accounting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apiserver/apf.h"
#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "model/objects.h"

namespace kd::apiserver {
namespace {

using model::ApiObject;
using model::kKindDeployment;
using model::kKindPod;
using model::MakeDeployment;
using model::MinimalPodTemplateSpec;

// --- TokenBucket -------------------------------------------------------

TEST(TokenBucketTest, BurstPassesImmediately) {
  sim::Engine engine;
  TokenBucket bucket(engine, 10.0, 5.0);
  int fired = 0;
  for (int i = 0; i < 5; ++i) bucket.Acquire([&] { ++fired; });
  EXPECT_EQ(fired, 5);  // all within burst, same instant
  EXPECT_EQ(engine.now(), 0);
}

TEST(TokenBucketTest, BeyondBurstWaitsForRefill) {
  sim::Engine engine;
  TokenBucket bucket(engine, 10.0, 1.0);  // 1 token, 10/s refill
  std::vector<Time> fire_times;
  for (int i = 0; i < 4; ++i) {
    bucket.Acquire([&] { fire_times.push_back(engine.now()); });
  }
  engine.Run();
  ASSERT_EQ(fire_times.size(), 4u);
  EXPECT_EQ(fire_times[0], 0);
  // Subsequent fires ~100ms apart (1/qps).
  for (int i = 1; i < 4; ++i) {
    EXPECT_NEAR(ToMillis(fire_times[i] - fire_times[i - 1]), 100.0, 1.0);
  }
}

TEST(TokenBucketTest, FifoOrder) {
  sim::Engine engine;
  TokenBucket bucket(engine, 1000.0, 1.0);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    bucket.Acquire([&order, i] { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(TokenBucketTest, IdleRefillRestoresBurst) {
  sim::Engine engine;
  TokenBucket bucket(engine, 10.0, 5.0);
  for (int i = 0; i < 5; ++i) bucket.Acquire([] {});
  engine.Run();
  engine.RunUntil(engine.now() + Seconds(10));
  EXPECT_NEAR(bucket.available(), 5.0, 1e-6);  // capped at burst
}

TEST(TokenBucketTest, TracksWaitTime) {
  sim::Engine engine;
  TokenBucket bucket(engine, 10.0, 1.0);
  std::vector<Time> fire_times;
  bucket.Acquire([&] { fire_times.push_back(engine.now()); });
  bucket.Acquire([&] { fire_times.push_back(engine.now()); });
  engine.Run();
  ASSERT_EQ(fire_times.size(), 2u);
  // The second caller waits for a refill: one token at 10/s.
  EXPECT_GE(fire_times[1] - fire_times[0], Milliseconds(90));
}

// --- ApiServer fixture ---------------------------------------------------

class ApiServerTest : public ::testing::Test {
 protected:
  ApiServerTest()
      : server_(engine_, CostModel::Default()),
        client_(engine_, server_, "test-client", 1e6, 1e6) {}

  ApiObject NewDeployment(const std::string& name, int replicas) {
    return MakeDeployment(name, replicas, MinimalPodTemplateSpec(name));
  }

  StatusOr<ApiObject> CreateSync(ApiObject obj) {
    StatusOr<ApiObject> result = InternalError("callback never ran");
    client_.Create(std::move(obj),
                   [&](StatusOr<ApiObject> r) { result = std::move(r); });
    engine_.Run();
    return result;
  }

  StatusOr<ApiObject> UpdateSync(ApiObject obj) {
    StatusOr<ApiObject> result = InternalError("callback never ran");
    client_.Update(std::move(obj),
                   [&](StatusOr<ApiObject> r) { result = std::move(r); });
    engine_.Run();
    return result;
  }

  sim::Engine engine_;
  ApiServer server_;
  ApiClient client_;
};

TEST_F(ApiServerTest, CreateAssignsResourceVersion) {
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  EXPECT_GT(created->resource_version, 0u);
  EXPECT_NE(server_.Peek(kKindDeployment, "fn"), nullptr);
}

TEST_F(ApiServerTest, CreateDuplicateFails) {
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 1)).ok());
  auto dup = CreateSync(NewDeployment("fn", 2));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(ApiServerTest, UpdateWithCurrentVersionSucceeds) {
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  ApiObject obj = *created;
  model::SetReplicas(obj, 5);
  auto updated = UpdateSync(obj);
  ASSERT_TRUE(updated.ok());
  EXPECT_GT(updated->resource_version, created->resource_version);
  EXPECT_EQ(model::GetReplicas(*server_.Peek(kKindDeployment, "fn")), 5);
}

TEST_F(ApiServerTest, UpdateWithStaleVersionConflicts) {
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  ApiObject fresh = *created;
  model::SetReplicas(fresh, 2);
  ASSERT_TRUE(UpdateSync(fresh).ok());
  // Second update still using the original (now stale) version.
  ApiObject stale = *created;
  model::SetReplicas(stale, 9);
  auto conflict = UpdateSync(stale);
  EXPECT_EQ(conflict.status().code(), StatusCode::kConflict);
  EXPECT_EQ(model::GetReplicas(*server_.Peek(kKindDeployment, "fn")), 2);
}

TEST_F(ApiServerTest, UpdateMissingObjectNotFound) {
  auto r = UpdateSync(NewDeployment("ghost", 1));
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ApiServerTest, DeleteRemovesObject) {
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 1)).ok());
  Status status = InternalError("never");
  client_.Delete(kKindDeployment, "fn", [&](Status s) { status = s; });
  engine_.Run();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(server_.Peek(kKindDeployment, "fn"), nullptr);
}

TEST_F(ApiServerTest, DeleteMissingNotFound) {
  Status status = OkStatus();
  client_.Delete(kKindDeployment, "ghost", [&](Status s) { status = s; });
  engine_.Run();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ApiServerTest, GetReturnsObject) {
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 3)).ok());
  StatusOr<ApiObject> got = InternalError("never");
  client_.Get(kKindDeployment, "fn",
              [&](StatusOr<ApiObject> r) { got = std::move(r); });
  engine_.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(model::GetReplicas(*got), 3);
}

TEST_F(ApiServerTest, ListFiltersByKind) {
  ASSERT_TRUE(CreateSync(NewDeployment("a", 1)).ok());
  ASSERT_TRUE(CreateSync(NewDeployment("b", 1)).ok());
  ApiObject node = model::MakeNode("n1", 1000, 1024);
  ASSERT_TRUE(CreateSync(node).ok());
  StatusOr<std::vector<ApiObject>> listed = InternalError("never");
  client_.List(kKindDeployment,
               [&](StatusOr<std::vector<ApiObject>> r, std::uint64_t) {
                 listed = std::move(r);
               });
  engine_.Run();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 2u);
}

TEST_F(ApiServerTest, WatchReceivesLifecycleEvents) {
  std::vector<WatchEventType> events;
  server_.Watch(kKindDeployment,
                [&](const WatchEvent& e) { events.push_back(e.type); });
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  ApiObject obj = *created;
  model::SetReplicas(obj, 2);
  ASSERT_TRUE(UpdateSync(obj).ok());
  client_.Delete(kKindDeployment, "fn", [](Status) {});
  engine_.Run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], WatchEventType::kAdded);
  EXPECT_EQ(events[1], WatchEventType::kModified);
  EXPECT_EQ(events[2], WatchEventType::kDeleted);
}

TEST_F(ApiServerTest, WatchFiltersKind) {
  int pod_events = 0;
  server_.Watch(kKindPod, [&](const WatchEvent&) { ++pod_events; });
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 1)).ok());
  engine_.Run();
  EXPECT_EQ(pod_events, 0);
}

TEST_F(ApiServerTest, UnwatchStopsDelivery) {
  int events = 0;
  WatchId id = server_.Watch(kKindDeployment,
                             [&](const WatchEvent&) { ++events; });
  ASSERT_TRUE(CreateSync(NewDeployment("a", 1)).ok());
  EXPECT_EQ(events, 1);
  server_.Unwatch(id);
  ASSERT_TRUE(CreateSync(NewDeployment("b", 1)).ok());
  EXPECT_EQ(events, 1);
}

TEST_F(ApiServerTest, AdmissionHookCanReject) {
  server_.AddAdmissionHook(
      [](AdmissionOp op, const ApiObject*, const ApiObject* incoming) {
        if (op == AdmissionOp::kUpdate && incoming &&
            model::GetReplicas(*incoming) > 10) {
          return PermissionDeniedError("replicas guarded");
        }
        return OkStatus();
      });
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  ApiObject obj = *created;
  model::SetReplicas(obj, 100);
  auto rejected = UpdateSync(obj);
  EXPECT_EQ(rejected.status().code(), StatusCode::kPermissionDenied);
  // Store unchanged; version not bumped.
  EXPECT_EQ(model::GetReplicas(*server_.Peek(kKindDeployment, "fn")), 1);
}

TEST_F(ApiServerTest, RejectedWriteEmitsNoWatchEvent) {
  server_.AddAdmissionHook(
      [](AdmissionOp op, const ApiObject*, const ApiObject*) {
        return op == AdmissionOp::kCreate
                   ? PermissionDeniedError("no creates")
                   : OkStatus();
      });
  int events = 0;
  server_.Watch(kKindDeployment, [&](const WatchEvent&) { ++events; });
  auto r = CreateSync(NewDeployment("fn", 1));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(events, 0);
}

TEST_F(ApiServerTest, ApiCallTakesMilliseconds) {
  // The paper reports 10-35 ms for a standard API call under load and
  // a handful of milliseconds unloaded; an isolated write should land
  // in the low-millisecond band (etcd fsync dominates).
  const Time start = engine_.now();
  auto created = CreateSync(NewDeployment("fn", 1));
  ASSERT_TRUE(created.ok());
  const Duration latency = engine_.now() - start;
  EXPECT_GT(latency, Milliseconds(2));
  EXPECT_LT(latency, Milliseconds(35));
}

TEST_F(ApiServerTest, SaturationQueuesRequests) {
  // Blast more concurrent writes than the server has workers; the
  // later responses must be pushed out by queueing.
  const int n = 200;
  int completed = 0;
  Time last_done = 0;
  for (int i = 0; i < n; ++i) {
    client_.Create(NewDeployment("fn-" + std::to_string(i), 1),
                   [&](StatusOr<ApiObject> r) {
                     ASSERT_TRUE(r.ok());
                     ++completed;
                     last_done = engine_.now();
                   });
  }
  engine_.Run();
  EXPECT_EQ(completed, n);
  const auto& sample = server_.metrics().GetSample("api_call_latency");
  EXPECT_GT(sample.Max(), 2 * sample.Min());
  EXPECT_GT(last_done, Milliseconds(10));
}

TEST_F(ApiServerTest, MetricsCountReadsAndWrites) {
  ASSERT_TRUE(CreateSync(NewDeployment("fn", 1)).ok());
  StatusOr<ApiObject> got = InternalError("never");
  client_.Get(kKindDeployment, "fn",
              [&](StatusOr<ApiObject> r) { got = std::move(r); });
  engine_.Run();
  EXPECT_EQ(server_.metrics().GetCount("api_writes"), 1);
  EXPECT_EQ(server_.metrics().GetCount("api_reads"), 1);
  EXPECT_GT(server_.metrics().GetCount("api_bytes_in"), 0);
}

TEST_F(ApiServerTest, SeedObjectBypassesCosts) {
  server_.SeedObject(NewDeployment("fn", 7));
  const ApiObject* obj = server_.Peek(kKindDeployment, "fn");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(model::GetReplicas(*obj), 7);
  EXPECT_EQ(engine_.now(), 0);  // no simulated time passed
}

// --- client rate limiting ------------------------------------------------

TEST(ApiClientRateLimitTest, LimiterThrottlesBeyondBurst) {
  sim::Engine engine;
  ApiServer server(engine, CostModel::Default());
  // 10 QPS, burst 5: 50 creates should take roughly 4.5 s.
  ApiClient slow(engine, server, "slow", 10.0, 5.0);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    slow.Create(
        MakeDeployment("fn-" + std::to_string(i), 1,
                       MinimalPodTemplateSpec("fn")),
        [&](StatusOr<ApiObject> r) {
          ASSERT_TRUE(r.ok());
          ++completed;
        });
  }
  engine.Run();
  EXPECT_EQ(completed, 50);
  EXPECT_GT(engine.now(), Seconds(4));
  EXPECT_LT(engine.now(), Seconds(6));
}

TEST(ApiClientRateLimitTest, LargeObjectsCostMoreThanSmall) {
  sim::Engine engine;
  ApiServer server(engine, CostModel::Default());
  ApiClient client(engine, server, "c", 1e6, 1e6);

  Time small_done = 0, large_done = 0;
  ApiObject small = MakeDeployment("small", 1, MinimalPodTemplateSpec("s"));
  client.Create(small, [&](StatusOr<ApiObject>) { small_done = engine.now(); });
  engine.Run();
  const Duration small_latency = small_done;

  ApiObject large =
      MakeDeployment("large", 1, model::RealisticPodTemplateSpec("l"));
  const Time t0 = engine.now();
  client.Create(large, [&](StatusOr<ApiObject>) { large_done = engine.now(); });
  engine.Run();
  EXPECT_GT(large_done - t0, small_latency);
}

// --- APF fair queueing -------------------------------------------------

TEST(ApfQueueTest, DisabledRunsInline) {
  ApfQueue apf;  // seats == 0: pass-through
  bool ran = false;
  apf.Submit("any", [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(apf.queued(), 0u);
  EXPECT_EQ(apf.in_service(), 0);
}

TEST(ApfQueueTest, RoundRobinAcrossFlowsFifoWithin) {
  ApfQueue apf;
  apf.Configure(1);
  std::vector<std::string> order;
  auto submit = [&](const std::string& flow, const std::string& tag) {
    apf.Submit(flow, [&order, tag] { order.push_back(tag); });
  };
  submit("b", "b1");  // seat free: runs inline
  submit("b", "b2");
  submit("a", "a1");
  submit("a", "a2");
  submit("c", "c1");
  EXPECT_EQ(apf.queued(), 4u);
  for (int i = 0; i < 4; ++i) apf.Release();
  // One seat, three flows: the rotating cursor alternates a→b→c before
  // returning to a's second request — no flow monopolizes the seat.
  EXPECT_EQ(order, (std::vector<std::string>{"b1", "a1", "b2", "c1", "a2"}));
  EXPECT_EQ(apf.queued(), 0u);
}

TEST(ApfQueueTest, ResetDropsQueuedWorkAndFreesSeats) {
  ApfQueue apf;
  apf.Configure(1);
  int ran = 0;
  apf.Submit("a", [&] { ++ran; });
  apf.Submit("a", [&] { ++ran; });
  EXPECT_EQ(ran, 1);
  apf.Reset();  // crash: queued work dies with the process
  EXPECT_EQ(apf.queued(), 0u);
  EXPECT_EQ(apf.in_service(), 0);
  apf.Submit("a", [&] { ++ran; });  // fresh incarnation admits again
  EXPECT_EQ(ran, 2);
}

ApiObject NewPod(const std::string& name) {
  ApiObject pod;
  pod.kind = kKindPod;
  pod.name = name;
  model::SetPodPhase(pod, model::PodPhase::kPending);
  return pod;
}

TEST(ApfServerTest, MouseFlowIsNotStarvedByElephantBacklog) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  cost.apf_seats = 1;  // one seat: the backlog is fully APF-ordered
  ApiServer server(engine, cost);
  ApiClient elephant(engine, server, "elephant", 1e6, 1e6);
  ApiClient mouse(engine, server, "mouse", 1e6, 1e6);

  std::vector<std::string> done_order;
  auto record = [&](const std::string& name) {
    return [&done_order, name](StatusOr<ApiObject>) {
      done_order.push_back(name);
    };
  };
  // The elephant floods eight writes, then the mouse posts one. Names
  // are the same length so every request carries identical costs and
  // arrival order is exactly issue order.
  for (int i = 0; i < 8; ++i) {
    const std::string name = "e" + std::to_string(i);
    elephant.Create(NewPod(name), record(name));
  }
  mouse.Create(NewPod("m0"), record("m0"));
  engine.Run();

  ASSERT_EQ(done_order.size(), 9u);
  EXPECT_EQ(done_order[0], "e0");  // admitted before the backlog formed
  // Round-robin across flows: the mouse's lone request drains within
  // its share (second dispatch from the queue), not behind all eight.
  EXPECT_EQ(done_order[2], "m0");
  EXPECT_GT(server.metrics().GetCount("apf.queue_depth_max"), 0);
}

}  // namespace
}  // namespace kd::apiserver
