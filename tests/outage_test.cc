// API-server fault-domain tests: relist diffing after a watch break,
// deterministic retry/backoff sequencing, deadline expiry ordering for
// requests that arrive while the server is down, and same-seed trace
// determinism of a scripted outage schedule.
//
// The core contract under test: a crash/restart loses no committed
// state and every consumer reconverges — informers and raw filtered
// watches synthesize exactly the events they missed (no duplicates, no
// phantom churn for untouched objects), retries are paced by the
// engine's seeded RNG (bit-reproducible), and degraded-mode clients
// fail predictably instead of hanging.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "cluster/cluster.h"
#include "common/strings.h"
#include "model/objects.h"
#include "net/network.h"
#include "runtime/env.h"
#include "runtime/harness.h"
#include "runtime/informer.h"
#include "sim/engine.h"

namespace kd {
namespace {

using apiserver::ApiClient;
using apiserver::ApiServer;
using model::ApiObject;
using model::kKindDeployment;
using model::kKindPod;
using model::MakeDeployment;
using model::MinimalPodTemplateSpec;

ApiObject Deploy(const std::string& name, int replicas) {
  return MakeDeployment(name, replicas, MinimalPodTemplateSpec(name));
}

// --- informer relist diffing ------------------------------------------

struct CacheEvent {
  enum Kind { kAdded, kModified, kDeleted } kind;
  std::string key;
};

void RecordCacheEvents(runtime::ObjectCache& cache,
                       std::vector<CacheEvent>& events) {
  cache.AddChangeHandler([&events](const std::string& key,
                                   const ApiObject* before,
                                   const ApiObject* after) {
    if (before == nullptr && after != nullptr) {
      events.push_back({CacheEvent::kAdded, key});
    } else if (before != nullptr && after == nullptr) {
      events.push_back({CacheEvent::kDeleted, key});
    } else {
      events.push_back({CacheEvent::kModified, key});
    }
  });
}

TEST(OutageRelistTest, InformerSynthesizesOneEventPerMissedMutation) {
  sim::Engine engine;
  ApiServer server(engine, CostModel::Default());
  ApiClient client(engine, server, "informer", 1e6, 1e6);
  MetricsRecorder metrics;
  runtime::ObjectCache cache;
  runtime::Informer informer(client, server, cache, &metrics);

  server.SeedObject(Deploy("mutated", 1));
  server.SeedObject(Deploy("deleted", 1));
  server.SeedObject(Deploy("untouched", 1));
  informer.Start(kKindDeployment);
  engine.RunFor(Seconds(1));
  ASSERT_TRUE(informer.synced());

  // Only record what happens from the outage onward.
  std::vector<CacheEvent> events;
  RecordCacheEvents(cache, events);

  // The watch breaks here; the informer never sees the three mutations
  // below as events — the post-restart relist must synthesize them.
  server.Crash();
  server.Restart();
  ApiClient writer(engine, server, "writer", 1e6, 1e6);
  writer.Create(Deploy("created", 2), [](StatusOr<ApiObject> r) {
    ASSERT_TRUE(r.ok());
  });
  writer.Get(kKindDeployment, "mutated", [&writer](StatusOr<ApiObject> r) {
    ASSERT_TRUE(r.ok());
    model::SetReplicas(*r, 7);
    writer.Update(std::move(*r), [](StatusOr<ApiObject> u) {
      ASSERT_TRUE(u.ok());
    });
  });
  writer.Delete(kKindDeployment, "deleted",
                [](Status s) { ASSERT_TRUE(s.ok()); });
  engine.RunFor(Seconds(5));

  // Exactly one synthesized event per missed mutation, none for the
  // untouched object.
  ASSERT_EQ(events.size(), 3u);
  int added = 0, modified = 0, deleted = 0;
  for (const CacheEvent& e : events) {
    if (e.kind == CacheEvent::kAdded) {
      ++added;
      EXPECT_EQ(e.key, "Deployment/created");
    } else if (e.kind == CacheEvent::kModified) {
      ++modified;
      EXPECT_EQ(e.key, "Deployment/mutated");
    } else {
      ++deleted;
      EXPECT_EQ(e.key, "Deployment/deleted");
    }
  }
  EXPECT_EQ(added, 1);
  EXPECT_EQ(modified, 1);
  EXPECT_EQ(deleted, 1);

  EXPECT_EQ(cache.Get("Deployment/deleted"), nullptr);
  ASSERT_NE(cache.Get("Deployment/mutated"), nullptr);
  EXPECT_EQ(model::GetReplicas(*cache.Get("Deployment/mutated")), 7);
  EXPECT_EQ(informer.resyncs(), 1u);
  EXPECT_EQ(metrics.GetCount("informer.Deployment.relists_total"), 1);
}

TEST(OutageRelistTest, InformerCacheMatchesServerAfterRecovery) {
  sim::Engine engine;
  ApiServer server(engine, CostModel::Default());
  ApiClient client(engine, server, "informer", 1e6, 1e6);
  runtime::ObjectCache cache;
  runtime::Informer informer(client, server, cache, nullptr);
  for (int i = 0; i < 8; ++i) server.SeedObject(Deploy(StrFormat("d%d", i), 1));
  informer.Start(kKindDeployment);
  engine.RunFor(Seconds(1));

  // Two back-to-back outages with churn committed between the breaks
  // and the relists.
  for (int round = 0; round < 2; ++round) {
    server.Crash();
    engine.RunFor(Milliseconds(100 * (round + 1)));
    server.Restart();
    server.SeedObject(Deploy(StrFormat("late-%d", round), round + 2));
    server.SeedObject(Deploy("d0", 10 + round));
    engine.RunFor(Seconds(5));
  }

  // Reconvergence: cache view == server view, object for object.
  std::vector<const ApiObject*> truth = server.PeekAll(kKindDeployment);
  std::vector<const ApiObject*> view = cache.List(kKindDeployment);
  ASSERT_EQ(view.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(view[i]->Key(), truth[i]->Key());
    EXPECT_EQ(view[i]->resource_version, truth[i]->resource_version);
  }
  EXPECT_EQ(informer.resyncs(), 2u);
}

// A second break that lands while the first recovery's relist is on
// the wire must invalidate that relist: the informer runs exactly one
// recovery for the two outages, and the cache still reconverges.
TEST(OutageRelistTest, SecondBreakDuringRelistRunsOneRecovery) {
  sim::Engine engine;
  const CostModel cost = CostModel::Default();
  ApiServer server(engine, cost);
  ApiClient client(engine, server, "informer", 1e6, 1e6);
  runtime::ObjectCache cache;
  runtime::Informer informer(client, server, cache, nullptr);
  for (int i = 0; i < 8; ++i) server.SeedObject(Deploy(StrFormat("d%d", i), 1));
  informer.Start(kKindDeployment);
  engine.RunFor(Seconds(1));

  const Time first_crash = engine.now();
  server.Crash();
  engine.RunFor(Milliseconds(100));
  server.Restart();
  // The break is delivered after watch_delivery_latency and the rearm
  // waits watch_retry_backoff: just past that, the relist is in flight.
  engine.RunUntil(first_crash + cost.watch_delivery_latency +
                  cost.watch_retry_backoff + Microseconds(100));

  server.Crash();
  engine.RunFor(Milliseconds(200));
  server.Restart();
  server.SeedObject(Deploy("late", 2));
  engine.RunFor(Seconds(60));

  std::vector<const ApiObject*> truth = server.PeekAll(kKindDeployment);
  std::vector<const ApiObject*> view = cache.List(kKindDeployment);
  ASSERT_EQ(view.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(view[i]->Key(), truth[i]->Key());
    EXPECT_EQ(view[i]->resource_version, truth[i]->resource_version);
  }
  EXPECT_EQ(informer.resyncs(), 1u);
}

// --- raw filtered-watch shadow relist ---------------------------------

TEST(OutageRelistTest, RawFilteredWatchSynthesizesScopedEvents) {
  sim::Engine engine;
  net::Network network(engine);
  CostModel cost = CostModel::Default();
  ApiServer server(engine, cost);
  MetricsRecorder metrics;
  runtime::Env env{engine, network, server, cost, metrics};

  runtime::ControllerHarness::Options options;
  options.name = "raw-watcher";
  options.client_id = "raw-watcher";
  options.address = "kd.test.raw-watcher";
  options.qps = cost.controller_qps;
  options.burst = cost.controller_burst;
  runtime::ControllerHarness harness(env, runtime::Mode::kKd, options);

  auto pod = [](const std::string& name, const std::string& scope) {
    ApiObject p;
    p.kind = kKindPod;
    p.name = name;
    model::SetPodPhase(p, model::PodPhase::kPending);
    model::SetLabel(p, "scope", scope);
    return p;
  };
  std::vector<std::pair<apiserver::WatchEventType, std::string>> seen;
  harness.WatchFiltered(
      kKindPod,
      [](const ApiObject& p) { return model::GetLabel(p, "scope") == "in"; },
      [&seen](const apiserver::WatchEvent& ev) {
        seen.emplace_back(ev.type, ev.object.Key());
      });
  harness.Start();
  engine.RunFor(Milliseconds(100));

  // Live events populate the shadow state the relist diffs against.
  ApiClient writer(engine, server, "writer", 1e6, 1e6);
  writer.Create(pod("stays", "in"), [](StatusOr<ApiObject>) {});
  writer.Create(pod("leaves-scope", "in"), [](StatusOr<ApiObject>) {});
  writer.Create(pod("removed", "in"), [](StatusOr<ApiObject>) {});
  engine.RunFor(Milliseconds(100));
  ASSERT_EQ(seen.size(), 3u);
  seen.clear();

  server.Crash();
  server.Restart();
  // Missed while broken: a new in-scope pod, an out-of-scope pod, a
  // deletion, and a pod whose label change moves it out of scope.
  writer.Create(pod("joined", "in"), [](StatusOr<ApiObject>) {});
  writer.Create(pod("elsewhere", "out"), [](StatusOr<ApiObject>) {});
  writer.Delete(kKindPod, "removed", [](Status) {});
  writer.Get(kKindPod, "leaves-scope", [&writer](StatusOr<ApiObject> r) {
    ASSERT_TRUE(r.ok());
    model::SetLabel(*r, "scope", "out");
    writer.Update(std::move(*r), [](StatusOr<ApiObject>) {});
  });
  engine.RunFor(Seconds(5));

  // The synthesized stream respects the server-side filter: "joined"
  // appears, "elsewhere" never does, and both the deletion and the
  // departure from scope surface as Deleted.
  int added = 0, deleted = 0;
  for (const auto& [type, key] : seen) {
    if (type == apiserver::WatchEventType::kAdded) {
      ++added;
      EXPECT_EQ(key, "Pod/joined");
    } else if (type == apiserver::WatchEventType::kDeleted) {
      ++deleted;
      EXPECT_TRUE(key == "Pod/removed" || key == "Pod/leaves-scope") << key;
    }
    EXPECT_NE(key, "Pod/elsewhere");
    EXPECT_NE(key, "Pod/stays");  // untouched: no synthesized churn
  }
  EXPECT_EQ(added, 1);
  EXPECT_EQ(deleted, 2);
}

// --- retry/backoff sequencing -----------------------------------------

// Runs one Get against a permanently-down server and returns the
// call's final completion time (after every retry has failed).
Time RunGiveUpClock(std::uint64_t seed, std::uint64_t* retries_out) {
  sim::Engine engine;
  engine.SeedRng(seed);
  ApiServer server(engine, CostModel::Default());
  MetricsRecorder metrics;
  ApiClient client(engine, server, "retrier", 1e6, 1e6, &metrics);
  server.SeedObject(Deploy("fn", 1));
  server.Crash();

  Time done_at = -1;
  Status final = OkStatus();
  client.Get(kKindDeployment, "fn", [&](StatusOr<ApiObject> r) {
    done_at = engine.now();
    final = r.status();
  });
  engine.RunFor(Minutes(5));
  EXPECT_EQ(final.code(), StatusCode::kDeadlineExceeded);
  if (retries_out != nullptr) {
    *retries_out = static_cast<std::uint64_t>(
        metrics.GetCount("client.retrier.retries_total"));
  }
  EXPECT_EQ(metrics.GetCount("client.retrier.deadline_exceeded_total"), 6);
  EXPECT_EQ(metrics.GetCount("client.retrier.giveups_total"), 1);
  return done_at;
}

TEST(OutageRetryTest, BackoffSequenceIsSeededAndBounded) {
  std::uint64_t retries = 0;
  const Time done = RunGiveUpClock(/*seed=*/42, &retries);
  ASSERT_GT(done, 0);
  EXPECT_EQ(retries, 5u);  // max_attempts=6 -> 5 backoff waits

  // Every attempt waits the full api_request_deadline (10 s); the five
  // backoff delays sum to 15.5 s nominal, jittered by +/-20%.
  const double total_s = ToSeconds(done);
  EXPECT_GT(total_s, 60.0 + 15.5 * 0.8);
  EXPECT_LT(total_s, 60.0 + 15.5 * 1.2 + 1.0);

  // Same seed, same clock — the jitter comes from the engine RNG, not
  // ambient entropy.
  EXPECT_EQ(RunGiveUpClock(/*seed=*/42, nullptr), done);
  // A different seed draws a different jitter sequence.
  EXPECT_NE(RunGiveUpClock(/*seed=*/43, nullptr), done);
}

TEST(OutageRetryTest, RetriesRideOutAShortOutage) {
  sim::Engine engine;
  ApiServer server(engine, CostModel::Default());
  MetricsRecorder metrics;
  ApiClient client(engine, server, "rider", 1e6, 1e6, &metrics);
  server.SeedObject(Deploy("fn", 3));

  server.Crash();
  engine.ScheduleAfter(Seconds(12), [&server] { server.Restart(); });

  StatusOr<ApiObject> result = InternalError("never ran");
  client.Get(kKindDeployment, "fn",
             [&](StatusOr<ApiObject> r) { result = std::move(r); });
  engine.RunFor(Minutes(2));

  // First attempt dies on the 10 s deadline; a retry lands after the
  // restart and succeeds against the surviving committed state.
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(model::GetReplicas(*result), 3);
  EXPECT_GE(metrics.GetCount("client.rider.retries_total"), 1);
  EXPECT_EQ(metrics.GetCount("client.rider.giveups_total"), 0);
}

// --- deadline expiry ordering -----------------------------------------

TEST(OutageDeadlineTest, RequestsExpireInArrivalOrder) {
  sim::Engine engine;
  ApiServer server(engine, CostModel::Default());
  // No retries: observe each request's single attempt.
  ApiClient client(engine, server, "plain", 1e6, 1e6, nullptr,
                   apiserver::RetryPolicy::None());
  server.Crash();

  std::vector<std::pair<int, Time>> expiries;  // (request id, fired at)
  std::vector<Time> sent_at;
  for (int i = 0; i < 3; ++i) {
    engine.ScheduleAt(i * Milliseconds(100), [&, i] {
      sent_at.push_back(engine.now());
      client.Get(kKindDeployment, StrFormat("fn-%d", i),
                 [&expiries, &engine, i](StatusOr<ApiObject> r) {
                   EXPECT_EQ(r.status().code(),
                             StatusCode::kDeadlineExceeded);
                   expiries.emplace_back(i, engine.now());
                 });
    });
  }
  engine.RunFor(Minutes(1));

  ASSERT_EQ(expiries.size(), 3u);
  const Duration deadline = CostModel::Default().api_request_deadline;
  for (int i = 0; i < 3; ++i) {
    // FIFO expiry: request i fails before request i+1, one deadline
    // after it was sent (plus uplink costs), never earlier.
    EXPECT_EQ(expiries[i].first, i);
    EXPECT_GE(expiries[i].second, sent_at[i] + deadline);
    EXPECT_LT(expiries[i].second,
              sent_at[i] + deadline + Milliseconds(100));
    if (i > 0) {
      EXPECT_GT(expiries[i].second, expiries[i - 1].second);
    }
  }
}

// --- outage-schedule trace determinism --------------------------------

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// A cluster scenario with a scripted mid-scale outage: the fault path
// (broken watches, retry timers, relists) must replay bit-for-bit under
// a fixed seed, exactly like the healthy path.
std::string OutageClusterTrace() {
  sim::Engine engine;
  std::string trace;
  engine.set_trace_hook([&trace](Time t, std::uint64_t seq, sim::EventId) {
    trace += StrFormat("%lld %llu\n", static_cast<long long>(t),
                       static_cast<unsigned long long>(seq));
  });

  cluster::ClusterConfig config = cluster::ClusterConfig::Kd(8);
  config.realistic_pod_template = false;
  config.cost.kd_direct_endpoint_publish = true;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn-a");
  cluster.RegisterFunction("fn-b");
  engine.RunFor(Milliseconds(200));

  cluster.ScaleTo("fn-a", 12);
  engine.RunFor(Seconds(5));
  cluster.apiserver().Crash();
  cluster.ScaleTo("fn-b", 6);  // lands mid-outage
  engine.RunFor(Seconds(8));
  cluster.apiserver().Restart();
  engine.RunFor(Seconds(10));
  cluster.ScaleTo("fn-a", 2);
  engine.RunFor(Seconds(10));
  return trace;
}

TEST(OutageDeterminismTest, ScriptedOutageTraceIsByteIdentical) {
  const std::string first = OutageClusterTrace();
  const std::string second = OutageClusterTrace();
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
  std::printf("[trace] outage-schedule: %zu bytes, fingerprint %016llx\n",
              first.size(),
              static_cast<unsigned long long>(Fnv1a(first)));
}

}  // namespace
}  // namespace kd
