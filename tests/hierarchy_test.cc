// Tests for the hierarchical write-back cache machinery (§4.2):
// KdLink batching, the handshake protocol in recover and reset modes,
// soft invalidation, acks, tombstone tracking, and the ownership guard.
#include <gtest/gtest.h>

#include "apiserver/apiserver.h"
#include "kubedirect/hierarchy.h"
#include "kubedirect/ownership.h"
#include "kubedirect/tombstone.h"
#include "model/objects.h"

namespace kd::kubedirect {
namespace {

using model::ApiObject;

ApiObject Pod(const std::string& name, const std::string& node = "") {
  ApiObject pod;
  pod.kind = model::kKindPod;
  pod.name = name;
  model::SetPodPhase(pod, model::PodPhase::kPending);
  if (!node.empty()) model::SetNodeName(pod, node);
  return pod;
}

// --- KdLink ------------------------------------------------------------

class KdLinkTest : public ::testing::Test {
 protected:
  KdLinkTest() : network_(engine_), cost_(CostModel::Default()) {}

  std::pair<KdLinkPtr, KdLinkPtr> MakeLinkPair(net::Endpoint& a,
                                               net::Endpoint& b) {
    KdLinkPtr server_link;
    b.Listen([&](net::ConnHandlePtr conn) {
      server_link = std::make_shared<KdLink>(engine_, cost_, std::move(conn));
    });
    KdLinkPtr client_link;
    a.Connect(b.address(), [&](StatusOr<net::ConnHandlePtr> r) {
      ASSERT_TRUE(r.ok());
      client_link =
          std::make_shared<KdLink>(engine_, cost_, std::move(r).value());
    });
    engine_.Run();
    EXPECT_NE(client_link, nullptr);
    EXPECT_NE(server_link, nullptr);
    return {client_link, server_link};
  }

  sim::Engine engine_;
  net::Network network_;
  CostModel cost_;
};

TEST_F(KdLinkTest, DeliversMessagesInOrder) {
  net::Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MakeLinkPair(a, b);
  std::vector<std::string> received;
  server->Bind([&](const WireMessage& m) { received.push_back(m.key); },
               [] {});
  client->Bind([](const WireMessage&) {}, [] {});
  for (int i = 0; i < 10; ++i) {
    WireMessage msg;
    msg.type = WireMessage::Type::kTombstone;
    msg.key = "Pod/p" + std::to_string(i);
    client->Send(msg);
  }
  engine_.Run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(received[i], "Pod/p" + std::to_string(i));
  }
}

TEST_F(KdLinkTest, BatchesWithinWindow) {
  net::Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MakeLinkPair(a, b);
  int delivered = 0;
  server->Bind([&delivered](const WireMessage&) { ++delivered; }, [] {});
  client->Bind([](const WireMessage&) {}, [] {});
  const std::uint64_t before = network_.total_messages();
  for (int i = 0; i < 10; ++i) {
    WireMessage msg;
    msg.type = WireMessage::Type::kAck;
    msg.key = "k" + std::to_string(i);
    client->Send(msg);
  }
  engine_.Run();
  // 10 messages, well under kd_batch: one network send carrying all 10.
  EXPECT_EQ(network_.total_messages() - before, 1u);
  EXPECT_EQ(delivered, 10);
}

TEST_F(KdLinkTest, FullBatchFlushesImmediately) {
  cost_.kd_batch = 4;
  net::Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MakeLinkPair(a, b);
  server->Bind([](const WireMessage&) {}, [] {});
  client->Bind([](const WireMessage&) {}, [] {});
  const std::uint64_t before = network_.total_messages();
  for (int i = 0; i < 8; ++i) {
    WireMessage msg;
    msg.type = WireMessage::Type::kAck;
    msg.key = "k";
    client->Send(msg);
  }
  engine_.Run();
  EXPECT_EQ(network_.total_messages() - before, 2u);  // two batches of 4
}

TEST_F(KdLinkTest, SendNowBypassesBatchWindow) {
  net::Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MakeLinkPair(a, b);
  Time received_at = -1;
  server->Bind([&](const WireMessage&) { received_at = engine_.now(); },
               [] {});
  client->Bind([](const WireMessage&) {}, [] {});
  const Time start = engine_.now();
  WireMessage msg;
  msg.type = WireMessage::Type::kAck;
  msg.key = "k";
  client->SendNow(msg);
  engine_.Run();
  ASSERT_GE(received_at, 0);
  // Propagation + processing only, far under the 200us batch window.
  EXPECT_LT(received_at - start, Microseconds(150));
}

TEST_F(KdLinkTest, DisconnectDropsPendingAndNotifies) {
  net::Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MakeLinkPair(a, b);
  int received = 0;
  bool server_down = false;
  server->Bind([&](const WireMessage&) { ++received; },
               [&] { server_down = true; });
  client->Bind([](const WireMessage&) {}, [] {});
  WireMessage msg;
  msg.type = WireMessage::Type::kAck;
  msg.key = "k";
  client->Send(msg);  // batched, not yet flushed
  client->Close();
  engine_.Run();
  EXPECT_EQ(received, 0);
  EXPECT_TRUE(server_down);
}

// --- Hierarchy fixture ----------------------------------------------------

class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest()
      : network_(engine_),
        cost_(CostModel::Default()),
        up_ep_(network_, "upstream"),
        down_ep_(network_, "downstream") {
    // Guard against reconnect livelocks turning into test hangs.
    engine_.set_event_limit(5'000'000);
  }

  std::unique_ptr<HierarchyServer> MakeServer(
      HierarchyServer::Callbacks callbacks = {}) {
    auto server = std::make_unique<HierarchyServer>(
        engine_, cost_, down_ep_, down_cache_, model::kKindPod,
        std::move(callbacks));
    server->Start();
    return server;
  }

  std::unique_ptr<HierarchyClient> MakeClient(
      HierarchyClient::Callbacks callbacks = {},
      std::function<bool(const ApiObject&)> scope = nullptr) {
    auto client = std::make_unique<HierarchyClient>(
        engine_, cost_, up_ep_, "downstream", up_cache_, model::kKindPod,
        std::move(scope), std::move(callbacks));
    client->Start();
    return client;
  }

  sim::Engine engine_;
  net::Network network_;
  CostModel cost_;
  net::Endpoint up_ep_;
  net::Endpoint down_ep_;
  runtime::ObjectCache up_cache_;
  runtime::ObjectCache down_cache_;
};

TEST_F(HierarchyTest, RecoverModeAdoptsDownstreamState) {
  down_cache_.Upsert(Pod("a", "n1"));
  down_cache_.Upsert(Pod("b", "n2"));
  auto server = MakeServer();
  ChangeSet changes;
  bool ready = false;
  auto client = MakeClient({.on_ready = [&](const ChangeSet& c) {
    changes = c;
    ready = true;
  }});
  engine_.Run();
  ASSERT_TRUE(ready);
  EXPECT_EQ(up_cache_.size(), 2u);
  EXPECT_EQ(model::GetNodeName(*up_cache_.Get("Pod/a")), "n1");
  EXPECT_EQ(changes.updated.size(), 2u);
  EXPECT_TRUE(changes.invalidated.empty());
  EXPECT_EQ(client->handshakes_completed(), 1u);
}

TEST_F(HierarchyTest, EmptyBothSidesHandshakesInstantly) {
  auto server = MakeServer();
  bool ready = false;
  ChangeSet changes;
  auto client = MakeClient({.on_ready = [&](const ChangeSet& c) {
    changes = c;
    ready = true;
  }});
  engine_.Run();
  EXPECT_TRUE(ready);
  EXPECT_TRUE(changes.empty());
}

TEST_F(HierarchyTest, ResetModeFetchesOnlyDiffs) {
  // Shared object "same", divergent "stale", downstream-only "extra",
  // upstream-only "orphan".
  ApiObject same = Pod("same", "n1");
  up_cache_.Upsert(same);
  down_cache_.Upsert(same);
  up_cache_.Upsert(Pod("stale"));            // downstream has node set
  down_cache_.Upsert(Pod("stale", "n4"));
  down_cache_.Upsert(Pod("extra", "n2"));
  up_cache_.Upsert(Pod("orphan"));           // gone downstream

  auto server = MakeServer();
  ChangeSet changes;
  auto client = MakeClient({.on_ready = [&](const ChangeSet& c) {
    changes = c;
  }});
  engine_.Run();

  // Upstream converged to downstream's view.
  EXPECT_EQ(model::GetNodeName(*up_cache_.Get("Pod/stale")), "n4");
  EXPECT_NE(up_cache_.Get("Pod/extra"), nullptr);
  EXPECT_EQ(up_cache_.Get("Pod/orphan"), nullptr);  // hidden
  EXPECT_TRUE(up_cache_.IsInvalid("Pod/orphan"));
  // Change set: stale+extra updated, orphan invalidated; "same"
  // untouched (version hash matched, never re-fetched).
  EXPECT_EQ(changes.updated.size(), 2u);
  ASSERT_EQ(changes.invalidated.size(), 1u);
  EXPECT_EQ(changes.invalidated[0], "Pod/orphan");
}

TEST_F(HierarchyTest, ScopeFilterLimitsHandshake) {
  up_cache_.Upsert(Pod("mine", "n1"));
  up_cache_.Upsert(Pod("other", "n2"));  // out of scope: different node
  auto server = MakeServer();
  ChangeSet changes;
  auto client = MakeClient(
      {.on_ready = [&](const ChangeSet& c) { changes = c; }},
      [](const ApiObject& obj) { return model::GetNodeName(obj) == "n1"; });
  engine_.Run();
  // "mine" is in scope and missing downstream -> invalidated; "other"
  // is out of scope -> untouched even though downstream lacks it.
  ASSERT_EQ(changes.invalidated.size(), 1u);
  EXPECT_EQ(changes.invalidated[0], "Pod/mine");
  EXPECT_NE(up_cache_.Get("Pod/other"), nullptr);
}

TEST_F(HierarchyTest, UpsertFlowsDownstream) {
  auto received = std::make_shared<std::vector<KdMessage>>();
  auto server = MakeServer({.on_upsert = [received](const KdMessage& m) {
    received->push_back(m);
  }});
  auto client = MakeClient();
  engine_.Run();
  ASSERT_TRUE(client->ready());
  KdMessage msg;
  msg.obj_key = "Pod/new";
  msg.attrs.emplace("status.phase", KdValue::Literal("Pending"));
  EXPECT_TRUE(client->SendUpsert(msg));
  engine_.Run();
  ASSERT_EQ(received->size(), 1u);
  EXPECT_EQ((*received)[0].obj_key, "Pod/new");
}

TEST_F(HierarchyTest, SendBeforeReadyDropsAndReturnsFalse) {
  // No server listening yet: client cannot be ready.
  auto client = MakeClient();
  KdMessage msg;
  msg.obj_key = "Pod/x";
  EXPECT_FALSE(client->SendUpsert(msg));
  EXPECT_FALSE(client->SendTombstone("Pod/x"));
  client->Stop();
  engine_.Run();
}

TEST_F(HierarchyTest, RemoveFlowsUpstreamAndAckFlowsBack) {
  down_cache_.Upsert(Pod("a", "n1"));
  std::vector<std::string> acked;
  auto server = MakeServer(
      {.on_ack = [&](const std::string& key) { acked.push_back(key); }});
  std::vector<std::string> removed;
  std::unique_ptr<HierarchyClient> client;
  client = MakeClient({.on_remove = [&](const std::string& key) {
    removed.push_back(key);
    client->SendAck(key);
  }});
  engine_.Run();
  EXPECT_TRUE(server->SendRemove("Pod/a"));
  engine_.Run();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], "Pod/a");
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_EQ(acked[0], "Pod/a");
}

TEST_F(HierarchyTest, SoftInvalidateMergesIntoUpstreamCache) {
  ApiObject pod = Pod("a");
  up_cache_.Upsert(pod);
  down_cache_.Upsert(pod);
  auto server = MakeServer();
  std::vector<std::string> notified;
  auto client = MakeClient(
      {.on_soft_invalidate = [&](const KdMessage& delta) {
        notified.push_back(delta.obj_key);
      }});
  engine_.Run();
  ASSERT_TRUE(client->ready());
  // Downstream schedules the pod and soft-invalidates upstream.
  KdMessage msg;
  msg.obj_key = "Pod/a";
  msg.attrs.emplace("spec.nodeName", KdValue::Literal("n9"));
  EXPECT_TRUE(server->SendSoftInvalidate(msg));
  engine_.Run();
  ASSERT_EQ(notified.size(), 1u);
  EXPECT_EQ(model::GetNodeName(*up_cache_.Get("Pod/a")), "n9");
}

TEST_F(HierarchyTest, TombstoneFlowsDownstream) {
  std::vector<std::string> tombstoned;
  auto server = MakeServer({.on_tombstone = [&](const std::string& key) {
    tombstoned.push_back(key);
  }});
  auto client = MakeClient();
  engine_.Run();
  EXPECT_TRUE(client->SendTombstone("Pod/victim"));
  engine_.Run();
  ASSERT_EQ(tombstoned.size(), 1u);
  EXPECT_EQ(tombstoned[0], "Pod/victim");
}

TEST_F(HierarchyTest, ReconnectAfterPartitionRerunsHandshake) {
  down_cache_.Upsert(Pod("a", "n1"));
  auto server = MakeServer();
  int ready_count = 0;
  bool went_down = false;
  auto client = MakeClient({
      .on_ready = [&](const ChangeSet&) { ++ready_count; },
      .on_down = [&] { went_down = true; },
  });
  engine_.Run();
  EXPECT_EQ(ready_count, 1);

  network_.Partition("upstream", "downstream");
  engine_.RunFor(Milliseconds(50));
  EXPECT_TRUE(went_down);
  EXPECT_FALSE(client->ready());

  // While partitioned the downstream state changed.
  down_cache_.Upsert(Pod("b", "n2"));
  network_.Heal("upstream", "downstream");
  engine_.RunFor(Seconds(2));
  EXPECT_TRUE(client->ready());
  EXPECT_GE(ready_count, 2);
  // Hard invalidation brought the new object across.
  EXPECT_NE(up_cache_.Get("Pod/b"), nullptr);
  EXPECT_EQ(client->handshakes_completed(), 2u);
}

TEST_F(HierarchyTest, NewUpstreamSupersedesOld) {
  auto server = MakeServer();
  auto client1 = MakeClient();
  engine_.Run();
  ASSERT_TRUE(client1->ready());
  // The upstream loses leadership (HA failover, §5): the old leader
  // stops, the new leader connects from a different endpoint and runs
  // the handshake. (Two *live* upstreams would fight over the server —
  // Kubernetes leader election guarantees at most one.)
  client1->Stop();
  net::Endpoint up2(network_, "upstream-2");
  runtime::ObjectCache cache2;
  HierarchyClient client2(engine_, cost_, up2, "downstream", cache2,
                          model::kKindPod, nullptr, {});
  client2.Start();
  engine_.Run();
  EXPECT_TRUE(client2.ready());
  EXPECT_FALSE(client1->ready());
}

TEST_F(HierarchyTest, StopPreventsReconnect) {
  auto server = MakeServer();
  auto client = MakeClient();
  engine_.Run();
  ASSERT_TRUE(client->ready());
  client->Stop();
  engine_.RunFor(Seconds(5));
  EXPECT_FALSE(client->ready());
  EXPECT_EQ(client->handshakes_completed(), 1u);
}

// Delivery hands a handler a reference into the received batch. A
// handler that stops its own link still reads the message it holds
// (the delivery keeps the batch alive), and the rest of the batch is
// not delivered. Under ASan, a reference that outlived its batch fails
// here.
TEST_F(HierarchyTest, ServerHandlerThatStopsItsLinkStillReadsItsMessage) {
  std::unique_ptr<HierarchyServer> server;
  std::vector<std::string> seen;
  server = MakeServer({.on_upsert = [&](const KdMessage& msg) {
    server->Stop();
    seen.push_back(msg.obj_key);
    for (const auto& [path, value] : msg.attrs) {
      seen.push_back(path + "=" + value.literal().as_string());
    }
  }});
  auto client = MakeClient();
  engine_.Run();
  ASSERT_TRUE(client->ready());
  for (int i = 0; i < 3; ++i) {  // one batch of three
    KdMessage msg;
    msg.obj_key = "Pod/p" + std::to_string(i);
    msg.attrs.emplace("spec.nodeName",
                      KdValue::Literal("n" + std::to_string(i)));
    msg.attrs.emplace("status.phase", KdValue::Literal("Pending"));
    ASSERT_TRUE(client->SendUpsert(std::move(msg)));
  }
  engine_.RunFor(Milliseconds(50));
  client->Stop();  // it would redial the stopped server forever
  engine_.Run();
  EXPECT_EQ(seen, (std::vector<std::string>{"Pod/p0", "spec.nodeName=n0",
                                            "status.phase=Pending"}));
}

// The same on the client side: an on_remove that stops the client
// still reads the key it was handed, and the batch's later removals
// are not delivered.
TEST_F(HierarchyTest, ClientHandlerThatStopsItsLinkStillReadsItsKey) {
  for (int i = 0; i < 3; ++i) {
    down_cache_.Upsert(Pod("p" + std::to_string(i), "n1"));
  }
  auto server = MakeServer();
  std::unique_ptr<HierarchyClient> client;
  std::vector<std::string> removed;
  client = MakeClient({.on_remove = [&](const std::string& key) {
    client->Stop();
    removed.push_back(key);
  }});
  engine_.Run();
  ASSERT_TRUE(client->ready());
  for (int i = 0; i < 3; ++i) {  // one batch of three
    ASSERT_TRUE(server->SendRemove("Pod/p" + std::to_string(i)));
  }
  engine_.Run();
  EXPECT_EQ(removed, std::vector<std::string>{"Pod/p0"});
  EXPECT_FALSE(client->ready());
}

// --- TombstoneTracker ----------------------------------------------------

TEST(TombstoneTrackerTest, AddHasGc) {
  TombstoneTracker tracker;
  tracker.Add("Pod/a");
  tracker.Add("Pod/a");  // idempotent
  EXPECT_TRUE(tracker.Has("Pod/a"));
  EXPECT_EQ(tracker.size(), 1u);
  tracker.Gc("Pod/a");
  EXPECT_FALSE(tracker.Has("Pod/a"));
  EXPECT_TRUE(tracker.empty());
}

// The §4.3 fast-forward sends tombstones in key order, whatever order
// they were added in (kdlint R2: iteration order feeds the wire).
TEST(TombstoneTrackerTest, ReplicateAllVisitsEveryKey) {
  TombstoneTracker tracker;
  tracker.Add("Pod/c");
  tracker.Add("Pod/a");
  tracker.Add("Pod/b");
  std::vector<std::string> sent;
  tracker.ReplicateAll([&](const std::string& key) { sent.push_back(key); });
  EXPECT_EQ(sent, (std::vector<std::string>{"Pod/a", "Pod/b", "Pod/c"}));
}

TEST(TombstoneTrackerTest, ClearIsSessionReset) {
  TombstoneTracker tracker;
  tracker.Add("Pod/a");
  tracker.Clear();
  EXPECT_TRUE(tracker.empty());
}

// --- Ownership guard -------------------------------------------------------

TEST(OwnershipGuardTest, RejectsExternalReplicasWrites) {
  auto guard = MakeReplicasGuard();
  ApiObject dep = model::MakeDeployment("fn", 3,
                                        model::MinimalPodTemplateSpec("fn"));
  model::SetKubeDirectManaged(dep, true);
  ApiObject update = dep;
  model::SetReplicas(update, 10);
  Status s = guard(apiserver::AdmissionOp::kUpdate, &dep, &update);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
}

TEST(OwnershipGuardTest, AllowsNonEssentialFieldWrites) {
  auto guard = MakeReplicasGuard();
  ApiObject dep = model::MakeDeployment("fn", 3,
                                        model::MinimalPodTemplateSpec("fn"));
  model::SetKubeDirectManaged(dep, true);
  ApiObject update = dep;
  model::SetAnnotation(update, "team", "storage");
  EXPECT_TRUE(guard(apiserver::AdmissionOp::kUpdate, &dep, &update).ok());
}

TEST(OwnershipGuardTest, UnmanagedObjectsUnaffected) {
  auto guard = MakeReplicasGuard();
  ApiObject dep = model::MakeDeployment("fn", 3,
                                        model::MinimalPodTemplateSpec("fn"));
  ApiObject update = dep;
  model::SetReplicas(update, 10);
  EXPECT_TRUE(guard(apiserver::AdmissionOp::kUpdate, &dep, &update).ok());
}

TEST(OwnershipGuardTest, RemovingAnnotationReleasesGuard) {
  auto guard = MakeReplicasGuard();
  ApiObject dep = model::MakeDeployment("fn", 3,
                                        model::MinimalPodTemplateSpec("fn"));
  model::SetKubeDirectManaged(dep, true);
  ApiObject update = dep;
  model::SetKubeDirectManaged(update, false);
  model::SetReplicas(update, 10);
  EXPECT_TRUE(guard(apiserver::AdmissionOp::kUpdate, &dep, &update).ok());
}

TEST(OwnershipGuardTest, IgnoresPodsAndNodes) {
  auto guard = MakeReplicasGuard();
  ApiObject node = model::MakeNode("n1", 1, 1);
  ApiObject update = node;
  model::SetCpuMilli(update, 99);
  EXPECT_TRUE(guard(apiserver::AdmissionOp::kUpdate, &node, &update).ok());
}

}  // namespace
}  // namespace kd::kubedirect
