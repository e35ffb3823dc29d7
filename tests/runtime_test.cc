// Tests for the controller runtime: object cache (incl. invalid
// marks, and seeded walks against an ordered reference), control loop
// (dedup, crash clear), informer sync.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apiserver/client.h"
#include "common/rng.h"
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

// --- ObjectCache oracle ----------------------------------------------
//
// Seeded walks of cache operations against a reference the test keeps
// in a std::map, so its key order is the one the ordered views promise.
// After every step each read must agree with the reference, and the
// change handler must have seen exactly the transitions the reference
// predicts.

struct RefEntry {
  std::uint64_t version = 0;  // identifies the stored object
  bool invalid = false;
};

// "PodX" shares the "Pod" prefix but not the "Pod/" one.
const char* const kWalkKinds[] = {"Pod", "PodX", "Node", "A"};
// The empty name, a shared prefix, a digit and a byte above 0x7f
// (which sorts after ASCII: the order is unsigned).
const char* const kWalkNames[] = {"", "a", "ab", "a0", "b", "z", "\xc3\xa9"};

ApiObject WalkObject(const std::string& kind, const std::string& name,
                     std::uint64_t version) {
  ApiObject obj;
  obj.kind = kind;
  obj.name = name;
  obj.resource_version = version;
  return obj;
}

// The change handler's view of a transition: versions, 0 for null.
struct Transition {
  std::string key;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  bool operator==(const Transition&) const = default;
};

void ExpectCacheMatches(const ObjectCache& cache,
                        const std::map<std::string, RefEntry>& ref,
                        const std::string& where) {
  SCOPED_TRACE(where);
  std::vector<std::string> visible;
  std::vector<std::string> invalid;
  for (const auto& [key, entry] : ref) {
    (entry.invalid ? invalid : visible).push_back(key);
  }
  for (const char* kind : kWalkKinds) {
    for (const char* name : kWalkNames) {
      const std::string key = ApiObject::MakeKey(kind, name);
      auto it = ref.find(key);
      const ApiObject* got = cache.Get(key);
      if (it == ref.end() || it->second.invalid) {
        EXPECT_EQ(got, nullptr) << key;
      } else {
        ASSERT_NE(got, nullptr) << key;
        EXPECT_EQ(got->resource_version, it->second.version) << key;
        EXPECT_EQ(got->Key(), key);
      }
      EXPECT_EQ(cache.IsInvalid(key),
                it != ref.end() && it->second.invalid)
          << key;
    }
    const std::string prefix = std::string(kind) + "/";
    std::vector<std::string> want;
    for (const std::string& key : visible) {
      if (key.starts_with(prefix)) want.push_back(key);
    }
    std::vector<std::string> listed;
    for (const ApiObject* obj : cache.List(kind)) listed.push_back(obj->Key());
    EXPECT_EQ(listed, want) << kind;
    EXPECT_EQ(cache.VisibleCount(kind), want.size()) << kind;
  }
  EXPECT_EQ(cache.size(), visible.size());
  std::vector<std::string> visited;
  cache.ForEachVisible(
      [&](const ApiObject& obj) { visited.push_back(obj.Key()); });
  EXPECT_EQ(visited, visible);
  EXPECT_EQ(cache.InvalidKeys(), invalid);
}

TEST(ObjectCacheTest, RandomWalkMatchesOrderedReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ObjectCache cache;
    std::map<std::string, RefEntry> ref;
    std::vector<Transition> seen;
    cache.AddChangeHandler([&](const std::string& key, const ApiObject* before,
                               const ApiObject* after) {
      seen.push_back({key, before ? before->resource_version : 0,
                      after ? after->resource_version : 0});
    });
    std::uint64_t next_version = 1;
    for (int step = 0; step < 300; ++step) {
      const std::string kind =
          kWalkKinds[rng.UniformInt(std::size(kWalkKinds))];
      const std::string name =
          kWalkNames[rng.UniformInt(std::size(kWalkNames))];
      const std::string key = ApiObject::MakeKey(kind, name);
      auto it = ref.find(key);
      const bool exists = it != ref.end();
      const bool visible = exists && !it->second.invalid;
      const std::uint64_t old_version = visible ? it->second.version : 0;
      std::vector<Transition> want;
      std::string op;
      const std::uint64_t roll = rng.UniformInt(100);
      if (roll < 40) {
        op = "Upsert";
        const std::uint64_t version = next_version++;
        cache.Upsert(WalkObject(kind, name, version));
        ref[key] = {version, false};
        want.push_back({key, old_version, version});
      } else if (roll < 55) {
        op = "Remove";
        cache.Remove(key);
        if (exists) ref.erase(it);
        if (visible) want.push_back({key, old_version, 0});
      } else if (roll < 75) {
        op = "MarkInvalid";
        cache.MarkInvalid(key);
        if (visible) {
          it->second.invalid = true;
          want.push_back({key, old_version, 0});
        }
      } else if (roll < 97) {
        op = "DropInvalid";
        cache.DropInvalid(key);
        if (exists && it->second.invalid) ref.erase(it);
      } else {
        op = "Clear";
        cache.Clear();  // fires no handlers
        ref.clear();
      }
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step) + " " + op + " " + key;
      EXPECT_EQ(seen, want) << where;
      seen.clear();
      ExpectCacheMatches(cache, ref, where);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ObjectCacheTest, GetPointerSurvivesRehash) {
  ObjectCache cache;
  cache.Upsert(WalkObject(kKindPod, "keep", 7));
  const ApiObject* kept = cache.Get("Pod/keep");
  ASSERT_NE(kept, nullptr);
  for (int i = 0; i < 4000; ++i) {
    cache.Upsert(WalkObject(i % 2 ? "Node" : kKindPod,
                            "n" + std::to_string(i), 100 + i));
    if (i % 3 == 0) cache.Remove("Pod/n" + std::to_string(i / 2));
  }
  EXPECT_EQ(cache.Get("Pod/keep"), kept);
  EXPECT_EQ(kept->name, "keep");
  EXPECT_EQ(kept->resource_version, 7u);
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
