// Tests for the sharded control plane (apiserver/shard.h): router
// stability and S=1 pass-through, key-routed seeding, cross-shard list
// fan-out/merge ordering, APF per-flow fairness, and the per-source
// informer fault domain (one shard's blip never relists the others).
#include "apiserver/shard.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apiserver/apf.h"
#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "common/cost_model.h"
#include "model/objects.h"
#include "runtime/cache.h"
#include "runtime/informer.h"
#include "sim/engine.h"

namespace kd::apiserver {
namespace {

using model::ApiObject;

ApiObject Pod(const std::string& name) {
  ApiObject pod;
  pod.kind = model::kKindPod;
  pod.name = name;
  model::SetPodPhase(pod, model::PodPhase::kPending);
  return pod;
}

// --- ShardRouter ------------------------------------------------------

TEST(ShardRouterTest, StableAcrossInstances) {
  // Routing is a pure function of (key, S): two routers always agree,
  // so the mapping never needs to be persisted or negotiated.
  const ShardRouter a(8);
  const ShardRouter b(8);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "Pod/fn-" + std::to_string(i);
    EXPECT_EQ(a.ShardForKey(key), b.ShardForKey(key));
    EXPECT_GE(a.ShardForKey(key), 0);
    EXPECT_LT(a.ShardForKey(key), 8);
  }
  EXPECT_EQ(a.ShardFor(model::kKindPod, "p0"),
            a.ShardForKey(ApiObject::MakeKey(model::kKindPod, "p0")));
}

TEST(ShardRouterTest, SpreadsKeysAcrossAllShards) {
  const ShardRouter router(8);
  std::set<int> hit;
  for (int i = 0; i < 1000; ++i) {
    hit.insert(router.ShardForKey("Pod/fn-" + std::to_string(i)));
  }
  EXPECT_EQ(hit.size(), 8u);  // FNV-1a spreads; no shard starves
}

TEST(ShardRouterTest, SingleShardIsPassThrough) {
  const ShardRouter router(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(router.ShardForKey("Pod/fn-" + std::to_string(i)), 0);
  }
}

TEST(ShardRouterTest, ClampsNonPositiveShardCounts) {
  EXPECT_EQ(ShardRouter(0).num_shards(), 1);
  EXPECT_EQ(ShardRouter(-3).num_shards(), 1);
}

// --- ControlPlane routing and merge -----------------------------------

TEST(ControlPlaneTest, SeedsRouteToExactlyTheRouterShard) {
  sim::Engine engine;
  ControlPlane plane(engine, CostModel::Default(), 4);
  for (int i = 0; i < 20; ++i) {
    plane.SeedObject(Pod("p" + std::to_string(i)));
  }
  EXPECT_EQ(plane.object_count(), 20u);
  for (int i = 0; i < 20; ++i) {
    const std::string name = "p" + std::to_string(i);
    ASSERT_NE(plane.Peek(model::kKindPod, name), nullptr) << name;
    const int home = plane.router().ShardFor(model::kKindPod, name);
    for (int s = 0; s < plane.num_shards(); ++s) {
      const ApiObject* obj = plane.shard(s).Peek(model::kKindPod, name);
      EXPECT_EQ(obj != nullptr, s == home) << name << " shard " << s;
    }
  }
}

TEST(ControlPlaneTest, PeekAllMergesInGlobalKeyOrder) {
  sim::Engine engine;
  ControlPlane plane(engine, CostModel::Default(), 4);
  for (int i = 19; i >= 0; --i) {  // seed out of order on purpose
    plane.SeedObject(Pod("p" + std::to_string(i)));
  }
  const std::vector<const ApiObject*> all = plane.PeekAll(model::kKindPod);
  ASSERT_EQ(all.size(), 20u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->Key(), all[i]->Key());
  }
}

TEST(ControlPlaneTest, ClientListFansOutAndMergesSorted) {
  sim::Engine engine;
  ControlPlane plane(engine, CostModel::Default(), 4);
  ApiClient client(engine, plane, "lister", 1e6, 1e6);
  for (int i = 0; i < 20; ++i) {
    plane.SeedObject(Pod("p" + std::to_string(i)));
  }
  std::vector<std::string> names;
  client.List(model::kKindPod, [&](StatusOr<std::vector<ApiObject>> r) {
    ASSERT_TRUE(r.ok());
    for (const ApiObject& obj : *r) names.push_back(obj.name);
  });
  engine.Run();
  ASSERT_EQ(names.size(), 20u);
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(ApiObject::MakeKey(model::kKindPod, names[i - 1]),
              ApiObject::MakeKey(model::kKindPod, names[i]));
  }
}

TEST(ControlPlaneTest, ListFanoutFailsWhileAnyShardIsDown) {
  sim::Engine engine;
  ControlPlane plane(engine, CostModel::Default(), 4);
  ApiClient client(engine, plane, "lister", 1e6, 1e6,
                   /*metrics=*/nullptr, RetryPolicy::None());
  plane.SeedObject(Pod("p0"));
  plane.CrashShard(1);

  bool failed = false;
  client.List(model::kKindPod, [&](StatusOr<std::vector<ApiObject>> r) {
    failed = !r.ok();
  });
  engine.Run();
  EXPECT_TRUE(failed);  // a partial keyspace is not a list result

  plane.RestartShard(1);
  bool ok = false;
  client.List(model::kKindPod,
              [&](StatusOr<std::vector<ApiObject>> r) { ok = r.ok(); });
  engine.Run();
  EXPECT_TRUE(ok);
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

TEST(ApfServerTest, MouseFlowIsNotStarvedByElephantBacklog) {
  sim::Engine engine;
  CostModel cost = CostModel::Default();
  cost.apf_seats = 1;  // one seat: the backlog is fully APF-ordered
  ControlPlane plane(engine, cost);
  ApiServer& server = plane.shard(0);
  ApiClient elephant(engine, plane, "elephant", 1e6, 1e6);
  ApiClient mouse(engine, plane, "mouse", 1e6, 1e6);

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
    elephant.Create(Pod(name), record(name));
  }
  mouse.Create(Pod("m0"), record("m0"));
  engine.Run();

  ASSERT_EQ(done_order.size(), 9u);
  EXPECT_EQ(done_order[0], "e0");  // admitted before the backlog formed
  // Round-robin across flows: the mouse's lone request drains within
  // its share (second dispatch from the queue), not behind all eight.
  EXPECT_EQ(done_order[2], "m0");
  EXPECT_GT(server.metrics().GetCount("apf.queue_depth_max"), 0);
}

// --- Informer per-source fault domain ----------------------------------

TEST(ShardedInformerTest, OneShardBlipNeverRelistsTheOthers) {
  sim::Engine engine;
  ControlPlane plane(engine, CostModel::Default(), 4);
  ApiClient client(engine, plane, "informer", 1e6, 1e6);
  runtime::ObjectCache cache;
  runtime::Informer informer(client, plane, cache);
  for (int i = 0; i < 20; ++i) {
    plane.SeedObject(Pod("p" + std::to_string(i)));
  }
  // The fixed FNV mapping puts at least one of 20 pods on shard 1;
  // assert it so the test fails loudly if the hash ever changes.
  int on_victim = 0;
  for (int i = 0; i < 20; ++i) {
    if (plane.router().ShardFor(model::kKindPod, "p" + std::to_string(i)) == 1)
      ++on_victim;
  }
  ASSERT_GT(on_victim, 0);

  bool synced = false;
  informer.Start(model::kKindPod, [&] { synced = true; });
  engine.Run();
  ASSERT_TRUE(synced);
  EXPECT_EQ(informer.num_sources(), 4);
  EXPECT_EQ(cache.VisibleCount(model::kKindPod), 20u);

  plane.CrashShard(1);
  engine.RunFor(Seconds(1));
  // Mid-outage the other sources' slices are untouched.
  EXPECT_EQ(cache.VisibleCount(model::kKindPod), 20u);

  plane.RestartShard(1);
  engine.RunFor(Seconds(10));
  EXPECT_EQ(cache.VisibleCount(model::kKindPod), 20u);
  EXPECT_EQ(informer.resyncs_for_shard(1), 1u);  // exactly one recovery
  for (const int s : {0, 2, 3}) {
    EXPECT_EQ(informer.resyncs_for_shard(s), 0u) << "shard " << s;
  }
  EXPECT_EQ(informer.resyncs(), 1u);
}

TEST(ShardedInformerTest, ConcurrentBlipsRecoverIndependently) {
  sim::Engine engine;
  ControlPlane plane(engine, CostModel::Default(), 4);
  ApiClient client(engine, plane, "informer", 1e6, 1e6);
  runtime::ObjectCache cache;
  runtime::Informer informer(client, plane, cache);
  for (int i = 0; i < 20; ++i) {
    plane.SeedObject(Pod("p" + std::to_string(i)));
  }
  informer.Start(model::kKindPod);
  engine.Run();

  // Two shards blip at once: each source runs its own recovery chain
  // (per-source epochs — a shared epoch would let one chain cancel the
  // other and strand a stale slice).
  plane.CrashShard(0);
  plane.CrashShard(2);
  engine.RunFor(Seconds(1));
  plane.RestartShard(0);
  plane.RestartShard(2);
  engine.RunFor(Seconds(10));

  EXPECT_EQ(cache.VisibleCount(model::kKindPod), 20u);
  EXPECT_EQ(informer.resyncs_for_shard(0), 1u);
  EXPECT_EQ(informer.resyncs_for_shard(2), 1u);
  EXPECT_EQ(informer.resyncs_for_shard(1), 0u);
  EXPECT_EQ(informer.resyncs_for_shard(3), 0u);
}

}  // namespace
}  // namespace kd::apiserver
