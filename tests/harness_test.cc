// Tests for the shared ControllerHarness substrate every narrow-waist
// controller runs on: crash/restart epoch invalidation, declarative
// wiring (SyncKind / WatchFiltered), and §4.2 downstream-first gating
// (and the settle count behind it).
#include "runtime/harness.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "common/rng.h"
#include "model/objects.h"
#include "net/network.h"
#include "runtime/env.h"
#include "sim/engine.h"

namespace kd::runtime {
namespace {

using model::ApiObject;

ApiObject Pod(const std::string& name) {
  ApiObject pod;
  pod.kind = model::kKindPod;
  pod.name = name;
  model::SetPodPhase(pod, model::PodPhase::kPending);
  return pod;
}

class HarnessTest : public ::testing::TestWithParam<Mode> {
 protected:
  HarnessTest()
      : network_(engine_),
        cost_(CostModel::Default()),
        apiserver_(engine_, cost_),
        env_{engine_, network_, apiserver_, cost_, metrics_} {}

  Mode mode() const { return GetParam(); }

  ControllerHarness::Options Opts(const std::string& name) {
    ControllerHarness::Options options;
    options.name = name;
    options.client_id = name + "-client";
    options.address = "kd.test." + name;
    options.qps = cost_.controller_qps;
    options.burst = cost_.controller_burst;
    return options;
  }

  // A parent that serves a level-triggered "__none__" upstream — what
  // a child harness's static downstream link handshakes against.
  void ServeNoneUpstream(ControllerHarness& parent,
                         bool downstream_first = false) {
    ControllerHarness::UpstreamSpec spec;
    spec.kind_filter = "__none__";
    spec.downstream_first = downstream_first;
    parent.ServeUpstream(std::move(spec));
  }

  void DialParent(ControllerHarness& child, const std::string& parent_name) {
    ControllerHarness::DownstreamSpec spec;
    spec.peer = "kd.test." + parent_name;
    spec.kind_filter = "__none__";
    child.ConnectDownstream(std::move(spec));
  }

  sim::Engine engine_;
  net::Network network_;
  CostModel cost_;
  apiserver::ApiServer apiserver_;
  MetricsRecorder metrics_;
  Env env_;
};

TEST_P(HarnessTest, SessionEpochBumpsAcrossRestarts) {
  ControllerHarness harness(env_, mode(), Opts("epoch"));
  EXPECT_EQ(harness.session(), 0u);
  harness.Start();
  EXPECT_EQ(harness.session(), 1u);
  EXPECT_FALSE(harness.crashed());
  harness.Crash();
  EXPECT_TRUE(harness.crashed());
  harness.Restart();
  EXPECT_EQ(harness.session(), 2u);
  EXPECT_FALSE(harness.crashed());
}

TEST_P(HarnessTest, CrashClearsSyncedCacheAndRestartResyncs) {
  apiserver_.SeedObject(model::MakeNode("node-0", 10'000, 64 * 1024));
  ObjectCache cache;
  ControllerHarness harness(env_, mode(), Opts("sync"));
  harness.SyncKind(cache, model::kKindNode);
  harness.Start();
  engine_.RunFor(Seconds(1));
  EXPECT_NE(cache.Get("Node/node-0"), nullptr);

  // The cache is invalidated synchronously at crash (recover mode
  // starts from empty state), and resynced by the informer on restart.
  harness.Crash();
  EXPECT_EQ(cache.Get("Node/node-0"), nullptr);
  harness.Restart();
  engine_.RunFor(Seconds(1));
  EXPECT_NE(cache.Get("Node/node-0"), nullptr);
}

TEST_P(HarnessTest, WatchEventsStopAtCrashAndResumeOnRestart) {
  int events = 0;
  ObjectCache cache;
  cache.AddChangeHandler(
      [&](const std::string&, const ApiObject*, const ApiObject*) {
        ++events;
      });
  ControllerHarness harness(env_, mode(), Opts("watch"));
  harness.WatchFiltered(cache, model::kKindPod,
                        [](const ApiObject&) { return true; });
  harness.Start();
  apiserver_.SeedObject(Pod("p1"));
  engine_.RunFor(Seconds(1));
  EXPECT_EQ(events, 1);

  harness.Crash();
  apiserver_.SeedObject(Pod("p2"));
  engine_.RunFor(Seconds(1));
  EXPECT_EQ(events, 1);  // unwatched: the crashed epoch sees nothing

  harness.Restart();
  apiserver_.SeedObject(Pod("p3"));
  engine_.RunFor(Seconds(1));
  EXPECT_EQ(events, 2);
}

// A watch event still in flight when its controller crashes must not
// reach it: the crash cleared the cache, and the restart's initial List
// never removes a key it does not return, so a late event would leave
// a ghost entry, and a handler it fires could enqueue a reconcile.
TEST_P(HarnessTest, CrashDropsWatchEventsInFlight) {
  ObjectCache cache;
  ControllerHarness harness(env_, mode(), Opts("inflight"));
  harness.SyncKind(cache, model::kKindPod);
  int changes_while_crashed = 0;
  cache.AddChangeHandler(
      [&](const std::string&, const ApiObject*, const ApiObject*) {
        if (harness.crashed()) ++changes_while_crashed;
      });
  harness.Start();
  engine_.RunFor(Seconds(1));

  // The seed's event is delivered watch_delivery_latency from now.
  apiserver_.SeedObject(Pod("p1"));
  harness.Crash();
  engine_.RunFor(Milliseconds(100));
  apiserver::ApiClient writer(engine_, apiserver_, "writer", 1e6, 1e6);
  writer.Delete(model::kKindPod, "p1", [](Status) {});
  engine_.RunFor(Seconds(1));

  harness.Restart();
  engine_.RunFor(Seconds(10));
  EXPECT_EQ(changes_while_crashed, 0);
  EXPECT_EQ(cache.Get("Pod/p1"), nullptr);
}

TEST_P(HarnessTest, CrashHookRunsBeforeCacheTeardown) {
  apiserver_.SeedObject(model::MakeNode("node-0", 10'000, 64 * 1024));
  ObjectCache cache;
  ControllerHarness harness(env_, mode(), Opts("hooks"));
  harness.SyncKind(cache, model::kKindNode);
  bool saw_cache_populated = false;
  harness.OnCrash([&] {
    // Policy hooks drop soft state first, while caches still hold the
    // pre-crash view.
    saw_cache_populated = cache.Get("Node/node-0") != nullptr;
  });
  harness.Start();
  engine_.RunFor(Seconds(1));
  harness.Crash();
  EXPECT_TRUE(saw_cache_populated);
  EXPECT_EQ(cache.Get("Node/node-0"), nullptr);
}

TEST_P(HarnessTest, DownstreamFirstUpstreamWaitsForBaseline) {
  ControllerHarness parent(env_, mode(), Opts("parent"));
  ServeNoneUpstream(parent, /*downstream_first=*/true);
  ControllerHarness child(env_, mode(), Opts("child"));
  DialParent(child, "parent");

  parent.Start();
  child.Start();
  engine_.RunFor(Seconds(2));
  // §4.2: the recovering parent must not accept a handshake before its
  // own source of truth is rebuilt.
  EXPECT_FALSE(child.link_ready());
  if (mode() == Mode::kK8s) return;

  parent.SetBaselineSynced(true);
  parent.MaybeStartUpstream();
  engine_.RunFor(Seconds(10));
  EXPECT_TRUE(child.link_ready());
}

// DownstreamsSettled() answers from a count of the dynamic links that
// are neither exempt nor ready, kept as links go ready or down and as
// exempt flags change. This walk drives a hub's fan-out through link
// creation, exempt toggles (before and after a link exists),
// partitions and heals, peer crashes and restarts, and hub crashes and
// restarts; after every step, and again after time passes, the O(1)
// answer must equal a recount over DownstreamReady/DownstreamExempt —
// the loop the count replaced, kept here as the reference.
TEST_P(HarnessTest, SettleCountMatchesBruteForceRecount) {
  if (mode() == Mode::kK8s) return;  // dynamic links are Kd-only
  constexpr int kPeers = 4;
  std::vector<std::unique_ptr<ControllerHarness>> peers;
  for (int i = 0; i < kPeers; ++i) {
    peers.push_back(std::make_unique<ControllerHarness>(
        env_, mode(), Opts("peer" + std::to_string(i))));
    ServeNoneUpstream(*peers.back());
    peers.back()->Start();
  }
  auto id_of = [](int i) { return "peer" + std::to_string(i); };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ControllerHarness hub(env_, mode(),
                          Opts("hub" + std::to_string(seed)));
    hub.Start();
    Rng rng(seed);
    std::set<std::string> linked;  // ensured since the hub's last crash
    int settled_steps = 0, unsettled_steps = 0, live_toggles = 0;
    int ready_seen = 0;
    auto check = [&](int step) {
      bool want = true;
      for (const std::string& id : linked) {
        if (hub.DownstreamReady(id)) ++ready_seen;
        if (!hub.DownstreamExempt(id) && !hub.DownstreamReady(id)) {
          want = false;
        }
      }
      ASSERT_EQ(hub.DownstreamsSettled(), want)
          << "seed " << seed << " step " << step;
      ++(want ? settled_steps : unsettled_steps);
    };
    for (int step = 0; step < 300; ++step) {
      const int peer = static_cast<int>(rng.UniformInt(kPeers));
      const std::string id = id_of(peer);
      const std::string& hub_addr = hub.endpoint().address();
      const std::string peer_addr = "kd.test." + id;
      switch (rng.UniformInt(7)) {
        case 0:
        case 1: {
          if (hub.crashed()) break;
          ControllerHarness::DownstreamSpec spec;
          spec.peer = peer_addr;
          spec.kind_filter = "__none__";
          hub.EnsureDownstream(id, std::move(spec));
          linked.insert(id);
          break;
        }
        case 2:
          if (hub.crashed()) break;
          if (linked.count(id) != 0) ++live_toggles;
          hub.SetDownstreamExempt(id, rng.UniformInt(2) == 0);
          break;
        case 3:
          network_.Partition(hub_addr, peer_addr);
          break;
        case 4:
          network_.Heal(hub_addr, peer_addr);
          break;
        case 5:
          if (peers[peer]->crashed()) {
            peers[peer]->Restart();
          } else {
            peers[peer]->Crash();
          }
          break;
        default:
          if (hub.crashed()) {
            hub.Restart();
          } else {
            hub.Crash();
            linked.clear();
          }
          break;
      }
      check(step);
      engine_.RunFor(
          Milliseconds(static_cast<std::int64_t>(rng.UniformInt(40))));
      check(step);
      if (HasFailure()) return;
    }
    // Not vacuous: the walk saw both answers, ready links, and toggles
    // of links that exist.
    EXPECT_GT(settled_steps, 0) << "seed " << seed;
    EXPECT_GT(unsettled_steps, 0) << "seed " << seed;
    EXPECT_GT(live_toggles, 0) << "seed " << seed;
    EXPECT_GT(ready_seen, 0) << "seed " << seed;
    for (int i = 0; i < kPeers; ++i) {
      network_.Heal(hub.endpoint().address(), "kd.test." + id_of(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, HarnessTest,
                         ::testing::Values(Mode::kK8s, Mode::kKd),
                         [](const ::testing::TestParamInfo<Mode>& param_info) {
                           return std::string(ModeName(param_info.param));
                         });

}  // namespace
}  // namespace kd::runtime
