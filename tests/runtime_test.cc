// Tests for the controller runtime: object cache (incl. invalid
// marks), control loop (dedup, crash clear), informer sync.
#include <gtest/gtest.h>

#include "apiserver/client.h"
#include "runtime/cache.h"
#include "runtime/control_loop.h"
#include "runtime/informer.h"

namespace kd::runtime {
namespace {

using model::ApiObject;
using model::kKindPod;
using model::MakeDeployment;
using model::MakeNode;
using model::MinimalPodTemplateSpec;

ApiObject Pod(const std::string& name) {
  ApiObject pod;
  pod.kind = kKindPod;
  pod.name = name;
  model::SetPodPhase(pod, model::PodPhase::kPending);
  return pod;
}

// --- ObjectCache ------------------------------------------------------

TEST(ObjectCacheTest, UpsertAndGet) {
  ObjectCache cache;
  cache.Upsert(Pod("a"));
  EXPECT_NE(cache.Get("Pod/a"), nullptr);
  EXPECT_EQ(cache.Get("Pod/b"), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ObjectCacheTest, UpsertOverwrites) {
  ObjectCache cache;
  ApiObject pod = Pod("a");
  cache.Upsert(pod);
  model::SetNodeName(pod, "n1");
  cache.Upsert(pod);
  EXPECT_EQ(model::GetNodeName(*cache.Get("Pod/a")), "n1");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ObjectCacheTest, RemoveDeletes) {
  ObjectCache cache;
  cache.Upsert(Pod("a"));
  cache.Remove("Pod/a");
  EXPECT_EQ(cache.Get("Pod/a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ObjectCacheTest, ListFiltersByKindSorted) {
  ObjectCache cache;
  cache.Upsert(Pod("b"));
  cache.Upsert(Pod("a"));
  cache.Upsert(MakeNode("n1", 1, 1));
  auto pods = cache.List(kKindPod);
  ASSERT_EQ(pods.size(), 2u);
  EXPECT_EQ(pods[0]->name, "a");  // key order
  EXPECT_EQ(pods[1]->name, "b");
  EXPECT_EQ(cache.VisibleCount(kKindPod), 2u);
}

TEST(ObjectCacheTest, InvalidMarkHidesButRemembers) {
  ObjectCache cache;
  cache.Upsert(Pod("a"));
  cache.MarkInvalid("Pod/a");
  EXPECT_EQ(cache.Get("Pod/a"), nullptr);
  EXPECT_TRUE(cache.IsInvalid("Pod/a"));
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_EQ(cache.InvalidKeys().size(), 1u);
  EXPECT_EQ(cache.InvalidKeys()[0], "Pod/a");
}

TEST(ObjectCacheTest, UpsertClearsInvalidMark) {
  ObjectCache cache;
  cache.Upsert(Pod("a"));
  cache.MarkInvalid("Pod/a");
  cache.Upsert(Pod("a"));  // authoritatively re-established
  EXPECT_NE(cache.Get("Pod/a"), nullptr);
  EXPECT_FALSE(cache.IsInvalid("Pod/a"));
}

TEST(ObjectCacheTest, DropInvalidRemovesOnlyInvalid) {
  ObjectCache cache;
  cache.Upsert(Pod("a"));
  cache.DropInvalid("Pod/a");  // not invalid: no-op
  EXPECT_NE(cache.Get("Pod/a"), nullptr);
  cache.MarkInvalid("Pod/a");
  cache.DropInvalid("Pod/a");
  EXPECT_FALSE(cache.IsInvalid("Pod/a"));
  EXPECT_TRUE(cache.InvalidKeys().empty());
}

TEST(ObjectCacheTest, ChangeHandlerSeesTransitions) {
  ObjectCache cache;
  struct Event {
    std::string key;
    bool had_before;
    bool has_after;
  };
  std::vector<Event> events;
  cache.AddChangeHandler([&](const std::string& key,
                             const model::ApiObject* before,
                             const model::ApiObject* after) {
    events.push_back({key, before != nullptr, after != nullptr});
  });
  cache.Upsert(Pod("a"));                // add
  cache.Upsert(Pod("a"));                // modify
  cache.MarkInvalid("Pod/a");            // hide (== delete to the loop)
  cache.Upsert(Pod("a"));                // re-establish
  cache.Remove("Pod/a");                 // delete
  ASSERT_EQ(events.size(), 5u);
  EXPECT_FALSE(events[0].had_before);
  EXPECT_TRUE(events[0].has_after);
  EXPECT_TRUE(events[1].had_before);
  EXPECT_TRUE(events[2].had_before);
  EXPECT_FALSE(events[2].has_after);  // invalidation looks like delete
  EXPECT_FALSE(events[3].had_before);
  EXPECT_TRUE(events[3].has_after);
  EXPECT_FALSE(events[4].has_after);
}

TEST(ObjectCacheTest, ForEachVisibleSkipsInvalid) {
  ObjectCache cache;
  cache.Upsert(Pod("c"));
  cache.Upsert(Pod("a"));
  cache.Upsert(Pod("b"));
  cache.MarkInvalid("Pod/b");
  std::vector<std::string> visited;
  cache.ForEachVisible(
      [&](const ApiObject& obj) { visited.push_back(obj.Key()); });
  EXPECT_EQ(visited, (std::vector<std::string>{"Pod/a", "Pod/c"}));
}

TEST(ObjectCacheTest, ClearWipesEverything) {
  ObjectCache cache;
  cache.Upsert(Pod("a"));
  cache.MarkInvalid("Pod/a");
  cache.Upsert(Pod("b"));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.InvalidKeys().empty());
}

// --- ControlLoop ------------------------------------------------------

class ControlLoopTest : public ::testing::Test {
 protected:
  ControlLoopTest() : cost_(CostModel::Default()), loop_(engine_, cost_, "t") {}
  sim::Engine engine_;
  CostModel cost_;
  ControlLoop loop_;
};

TEST_F(ControlLoopTest, ProcessesEnqueuedKeys) {
  std::vector<std::string> seen;
  loop_.SetReconciler([&](const std::string& key) {
    seen.push_back(key);
    return Duration{0};
  });
  loop_.Enqueue("a");
  loop_.Enqueue("b");
  engine_.Run();
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(loop_.processed(), 2u);
  EXPECT_TRUE(loop_.idle());
}

TEST_F(ControlLoopTest, DedupsQueuedKeys) {
  int count = 0;
  loop_.SetReconciler([&](const std::string&) {
    ++count;
    return Duration{0};
  });
  loop_.Enqueue("a");
  loop_.Enqueue("a");
  loop_.Enqueue("a");
  engine_.Run();
  EXPECT_EQ(count, 1);
}

TEST_F(ControlLoopTest, ReenqueueDuringReconcileRuns) {
  int count = 0;
  loop_.SetReconciler([&](const std::string& key) {
    if (++count == 1) loop_.Enqueue(key);  // level-triggered self-requeue
    return Duration{0};
  });
  loop_.Enqueue("a");
  engine_.Run();
  EXPECT_EQ(count, 2);
}

TEST_F(ControlLoopTest, ChargesReconcileCost) {
  loop_.SetReconciler([&](const std::string&) { return Milliseconds(5); });
  loop_.Enqueue("a");
  loop_.Enqueue("b");
  engine_.Run();
  // Serial execution: the second item cannot start before the first
  // item's reconcile_base + 5ms elapsed. (The engine clock stops at the
  // *start* of the last reconcile; its busy time extends beyond.)
  EXPECT_GE(engine_.now(), cost_.reconcile_base + Milliseconds(5));
}

TEST_F(ControlLoopTest, EnqueueAfterDelays) {
  Time fired = -1;
  loop_.SetReconciler([&](const std::string&) {
    fired = engine_.now();
    return Duration{0};
  });
  loop_.EnqueueAfter("a", Milliseconds(50));
  engine_.Run();
  EXPECT_GE(fired, Milliseconds(50));
}

TEST_F(ControlLoopTest, ClearDropsQueuedWork) {
  int count = 0;
  loop_.SetReconciler([&](const std::string&) {
    ++count;
    return Duration{0};
  });
  loop_.Enqueue("a");
  loop_.Enqueue("b");
  loop_.Clear();
  engine_.Run();
  EXPECT_EQ(count, 0);
  // Loop usable again after Clear (restart).
  loop_.Enqueue("c");
  engine_.Run();
  EXPECT_EQ(count, 1);
}

TEST_F(ControlLoopTest, ClearCancelsDelayedRequeues) {
  int count = 0;
  loop_.SetReconciler([&](const std::string&) {
    ++count;
    return Duration{0};
  });
  loop_.EnqueueAfter("a", Milliseconds(10));
  loop_.Clear();
  engine_.Run();
  EXPECT_EQ(count, 0);
}

// --- Informer ----------------------------------------------------------

TEST(InformerTest, InitialListSeedsCacheThenWatchKeepsItFresh) {
  sim::Engine engine;
  apiserver::ApiServer server(engine, CostModel::Default());
  apiserver::ApiClient client(engine, server, "informer", 1e6, 1e6);
  ObjectCache cache;
  Informer informer(client, server, cache);

  server.SeedObject(MakeDeployment("pre", 1, MinimalPodTemplateSpec("pre")));

  bool synced = false;
  informer.Start(model::kKindDeployment, [&] { synced = true; });
  engine.Run();
  EXPECT_TRUE(synced);
  EXPECT_TRUE(informer.synced());
  EXPECT_NE(cache.Get("Deployment/pre"), nullptr);

  // Subsequent API writes flow through the watch.
  apiserver::ApiClient writer(engine, server, "writer", 1e6, 1e6);
  writer.Create(MakeDeployment("post", 2, MinimalPodTemplateSpec("post")),
                [](StatusOr<ApiObject>) {});
  engine.Run();
  ASSERT_NE(cache.Get("Deployment/post"), nullptr);
  EXPECT_EQ(model::GetReplicas(*cache.Get("Deployment/post")), 2);

  writer.Delete(model::kKindDeployment, "post", [](Status) {});
  engine.Run();
  EXPECT_EQ(cache.Get("Deployment/post"), nullptr);
}

TEST(InformerTest, StopUnsubscribes) {
  sim::Engine engine;
  apiserver::ApiServer server(engine, CostModel::Default());
  apiserver::ApiClient client(engine, server, "informer", 1e6, 1e6);
  ObjectCache cache;
  Informer informer(client, server, cache);
  informer.Start(model::kKindDeployment);
  engine.Run();
  informer.Stop();
  server.SeedObject(MakeDeployment("late", 1, MinimalPodTemplateSpec("l")));
  engine.Run();
  EXPECT_EQ(cache.Get("Deployment/late"), nullptr);
}

}  // namespace
}  // namespace kd::runtime
