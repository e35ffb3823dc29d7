// Unit tests for the simulated network: connection setup, ordered
// delivery, disconnect semantics (in-flight drops), partitions, crash,
// and the payload seam (the declared byte count, not the body, is what
// the wire charges).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/network.h"

namespace kd::net {
namespace {

std::string TextOf(const Payload& payload) {
  std::shared_ptr<const std::string> text = payload.body<std::string>();
  return text != nullptr ? *text : std::string();
}

class NetTest : public ::testing::Test {
 protected:
  NetTest() : network_(engine_) {}

  // Connects `from` -> `to`; runs the engine until the handshake
  // completes and returns both handles (client, server).
  std::pair<ConnHandlePtr, ConnHandlePtr> MustConnect(Endpoint& from,
                                                      Endpoint& to) {
    ConnHandlePtr server;
    to.Listen([&](ConnHandlePtr h) { server = std::move(h); });
    ConnHandlePtr client;
    from.Connect(to.address(), [&](StatusOr<ConnHandlePtr> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      client = std::move(r).value();
    });
    engine_.Run();
    EXPECT_NE(client, nullptr);
    EXPECT_NE(server, nullptr);
    return {client, server};
  }

  sim::Engine engine_;
  Network network_;
};

TEST_F(NetTest, ConnectDeliversHandlesToBothSides) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  EXPECT_TRUE(client->connected());
  EXPECT_TRUE(server->connected());
  EXPECT_EQ(client->peer_address(), "b");
  EXPECT_EQ(server->peer_address(), "a");
}

TEST_F(NetTest, ConnectToUnregisteredAddressFails) {
  Endpoint a(network_, "a");
  Status status = OkStatus();
  a.Connect("ghost", [&](StatusOr<ConnHandlePtr> r) { status = r.status(); });
  engine_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(NetTest, ConnectToNonListeningEndpointFails) {
  Endpoint a(network_, "a"), b(network_, "b");
  Status status = OkStatus();
  a.Connect("b", [&](StatusOr<ConnHandlePtr> r) { status = r.status(); });
  engine_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(NetTest, MessagesArriveInOrder) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  std::vector<std::string> received;
  server->set_on_message([&](Payload m) { received.push_back(TextOf(m)); });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Send(Payload::Text("msg" + std::to_string(i))).ok());
  }
  engine_.Run();
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(received[i], "msg" + std::to_string(i));
  }
}

TEST_F(NetTest, LargeMessagesDontOvertakeSmallEarlierOnes) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  std::vector<std::size_t> sizes;
  server->set_on_message([&](Payload m) { sizes.push_back(m.bytes()); });
  // 1 MiB first
  ASSERT_TRUE(client->Send(Payload::Text(std::string(1 << 20, 'x'))).ok());
  ASSERT_TRUE(client->Send(Payload::Text("tiny")).ok());
  engine_.Run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u << 20);
  EXPECT_EQ(sizes[1], 4u);
}

TEST_F(NetTest, BandwidthDelaysLargeMessages) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  Time small_arrival = -1, large_arrival = -1;
  int count = 0;
  server->set_on_message([&](Payload m) {
    if (m.bytes() < 100) small_arrival = engine_.now();
    else large_arrival = engine_.now();
    ++count;
  });
  const Time start = engine_.now();
  ASSERT_TRUE(client->Send(Payload::Text("s")).ok());
  engine_.Run();
  ASSERT_TRUE(
      client->Send(Payload::Text(std::string(10'000'000, 'x'))).ok());
  engine_.Run();
  EXPECT_EQ(count, 2);
  // 10 MB at 10 Gbps is 8 ms of serialization; the small one just
  // propagation latency.
  EXPECT_LT(small_arrival - start, Milliseconds(1));
  EXPECT_GT(large_arrival - small_arrival, Milliseconds(5));
}

TEST_F(NetTest, BidirectionalTraffic) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  std::string got_at_server, got_at_client;
  server->set_on_message([&](Payload m) {
    got_at_server = TextOf(m);
    server->Send(Payload::Text("pong")).ok();
  });
  client->set_on_message([&](Payload m) { got_at_client = TextOf(m); });
  ASSERT_TRUE(client->Send(Payload::Text("ping")).ok());
  engine_.Run();
  EXPECT_EQ(got_at_server, "ping");
  EXPECT_EQ(got_at_client, "pong");
}

TEST_F(NetTest, CloseNotifiesPeerAndDropsInflight) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  int server_received = 0;
  bool server_disconnected = false;
  server->set_on_message([&](Payload) { ++server_received; });
  server->set_on_disconnect([&] { server_disconnected = true; });
  ASSERT_TRUE(client->Send(Payload::Text("inflight")).ok());
  client->Close();  // closes before delivery latency elapses
  engine_.Run();
  EXPECT_EQ(server_received, 0);  // in-flight message dropped
  EXPECT_TRUE(server_disconnected);
  EXPECT_FALSE(client->connected());
  EXPECT_FALSE(server->connected());
}

TEST_F(NetTest, SendOnClosedConnectionFails) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  client->Close();
  EXPECT_EQ(client->Send(Payload::Text("x")).code(),
            StatusCode::kUnavailable);
  engine_.Run();
  EXPECT_EQ(server->Send(Payload::Text("y")).code(),
            StatusCode::kUnavailable);
}

TEST_F(NetTest, DisconnectFiresOncePerSide) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  int client_events = 0, server_events = 0;
  client->set_on_disconnect([&] { ++client_events; });
  server->set_on_disconnect([&] { ++server_events; });
  client->Close();
  server->Close();
  engine_.Run();
  EXPECT_EQ(client_events, 1);
  EXPECT_EQ(server_events, 1);
}

TEST_F(NetTest, PartitionClosesExistingConnections) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  bool client_down = false, server_down = false;
  client->set_on_disconnect([&] { client_down = true; });
  server->set_on_disconnect([&] { server_down = true; });
  network_.Partition("a", "b");
  engine_.Run();
  EXPECT_TRUE(client_down);
  EXPECT_TRUE(server_down);
}

TEST_F(NetTest, PartitionBlocksNewConnections) {
  Endpoint a(network_, "a"), b(network_, "b");
  b.Listen([](ConnHandlePtr) {});
  network_.Partition("a", "b");
  Status status = OkStatus();
  a.Connect("b", [&](StatusOr<ConnHandlePtr> r) { status = r.status(); });
  engine_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(NetTest, HealRestoresConnectivity) {
  Endpoint a(network_, "a"), b(network_, "b");
  network_.Partition("a", "b");
  network_.Heal("a", "b");
  auto [client, server] = MustConnect(a, b);
  EXPECT_TRUE(client->connected());
}

TEST_F(NetTest, PartitionOnlyAffectsNamedPair) {
  Endpoint a(network_, "a"), b(network_, "b"), c(network_, "c");
  network_.Partition("a", "b");
  auto [client, server] = MustConnect(a, c);
  EXPECT_TRUE(client->connected());
}

TEST_F(NetTest, CrashSilencesCrashedSideNotifiesSurvivor) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  bool client_notified = false, server_notified = false;
  client->set_on_disconnect([&] { client_notified = true; });
  server->set_on_disconnect([&] { server_notified = true; });
  network_.CrashEndpoint("a");
  engine_.Run();
  EXPECT_FALSE(client_notified);  // crashed process gets no callback
  EXPECT_TRUE(server_notified);
  EXPECT_FALSE(client->connected());
}

TEST_F(NetTest, ReconnectAfterCrashWorks) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [c1, s1] = MustConnect(a, b);
  network_.CrashEndpoint("a");
  engine_.Run();
  auto [c2, s2] = MustConnect(a, b);
  std::string got;
  s2->set_on_message([&](Payload m) { got = TextOf(m); });
  ASSERT_TRUE(c2->Send(Payload::Text("hello again")).ok());
  engine_.Run();
  EXPECT_EQ(got, "hello again");
}

TEST_F(NetTest, AccountingCountsBytes) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  ASSERT_TRUE(client->Send(Payload::Text(std::string(64, 'x'))).ok());
  ASSERT_TRUE(client->Send(Payload::Text(std::string(36, 'y'))).ok());
  engine_.Run();
  EXPECT_EQ(network_.total_messages(), 2u);
  EXPECT_EQ(network_.total_bytes(), 100u);
}

// The wire charges what the sender declares, never the body's own
// size: a tiny body declared at 10 MB pays 10 MB of bandwidth and
// accounting, a 10 MB body declared at one byte pays only latency.
TEST_F(NetTest, DeclaredBytesNotBodySetBandwidthAndAccounting) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  std::vector<Time> arrivals;
  std::vector<std::size_t> body_sizes;
  server->set_on_message([&](Payload m) {
    arrivals.push_back(engine_.now());
    body_sizes.push_back(TextOf(m).size());
  });
  const Time start = engine_.now();
  ASSERT_TRUE(
      client->Send(Payload::Of(std::string(10'000'000, 'x'), 1)).ok());
  engine_.Run();
  const Time second = engine_.now();
  ASSERT_TRUE(client->Send(Payload::Of(std::string("x"), 10'000'000)).ok());
  engine_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(body_sizes, (std::vector<std::size_t>{10'000'000, 1}));
  EXPECT_LT(arrivals[0] - start, Milliseconds(1));
  // 10 MB at 10 Gbps is 8 ms on the wire.
  EXPECT_GT(arrivals[1] - second, Milliseconds(5));
  EXPECT_EQ(network_.total_messages(), 2u);
  EXPECT_EQ(network_.total_bytes(), 10'000'001u);
}

// The body reaches the receiver as the sender's own object, and is
// readable only as the type it was built with.
TEST_F(NetTest, PayloadBodyIsSharedAndTyped) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  const Payload sent = Payload::Of(std::vector<int>{1, 2, 3}, 12);
  Payload got;
  server->set_on_message([&](Payload m) { got = std::move(m); });
  ASSERT_TRUE(client->Send(sent).ok());
  engine_.Run();
  ASSERT_NE(got.body<std::vector<int>>(), nullptr);
  EXPECT_EQ(got.body<std::vector<int>>().get(),
            sent.body<std::vector<int>>().get());
  EXPECT_EQ(got.body<std::string>(), nullptr);
  EXPECT_EQ(got.bytes(), 12u);
}

TEST_F(NetTest, SendObserverSeesEveryAcceptedPayload) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  std::vector<std::string> seen;
  network_.set_send_observer(
      [&](const Payload& p) { seen.push_back(TextOf(p)); });
  ASSERT_TRUE(client->Send(Payload::Text("one")).ok());
  ASSERT_TRUE(server->Send(Payload::Text("two")).ok());
  client->Close();
  EXPECT_FALSE(client->Send(Payload::Text("refused")).ok());
  engine_.Run();
  // Sent and counted, even though the close dropped both in flight.
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(network_.total_messages(), 2u);
}

TEST_F(NetTest, DuplicateAddressAsserts) {
  Endpoint a(network_, "a");
  EXPECT_DEATH({ Endpoint dup(network_, "a"); }, "duplicate");
}

TEST_F(NetTest, EndpointUnregistersOnDestruction) {
  {
    Endpoint tmp(network_, "tmp");
    EXPECT_NE(network_.Find("tmp"), nullptr);
  }
  EXPECT_EQ(network_.Find("tmp"), nullptr);
}

TEST_F(NetTest, TargetCrashWithSynInFlightTimesOutInsteadOfHalfOpen) {
  Endpoint a(network_, "a"), b(network_, "b");
  bool accepted = false;
  b.Listen([&](ConnHandlePtr) { accepted = true; });
  Status status = OkStatus();
  bool done = false;
  Time done_at = 0;
  a.Connect("b", [&](StatusOr<ConnHandlePtr> r) {
    status = r.status();
    done = true;
    done_at = engine_.now();
  });
  // The crash lands after the SYN left but before it arrives; the
  // listening flag is untouched (a restarted process may be back), so
  // only the crash epoch distinguishes the dead incarnation.
  engine_.ScheduleAfter(kLinkLatency / 2, [&] { network_.CrashEndpoint("b"); });
  engine_.Run();
  ASSERT_TRUE(done);  // must not hang half-open
  EXPECT_FALSE(accepted);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // Failure is observed as a connect timeout, not instantly.
  EXPECT_GE(done_at, kLinkLatency + kDisconnectDetectDelay);
}

TEST_F(NetTest, ConnectorCrashWithSynInFlightStaysSilent) {
  Endpoint a(network_, "a"), b(network_, "b");
  b.Listen([](ConnHandlePtr) {});
  bool called = false;
  a.Connect("b", [&](StatusOr<ConnHandlePtr>) { called = true; });
  // The connector dies while its own SYN is on the wire: its process
  // is gone, so no completion callback may fire into it.
  engine_.ScheduleAfter(kLinkLatency / 2, [&] { network_.CrashEndpoint("a"); });
  engine_.Run();
  EXPECT_FALSE(called);
}

TEST_F(NetTest, MidSetupPartitionFailsConnect) {
  Endpoint a(network_, "a"), b(network_, "b");
  b.Listen([](ConnHandlePtr) {});
  Status status = OkStatus();
  bool done = false;
  a.Connect("b", [&](StatusOr<ConnHandlePtr> r) {
    status = r.status();
    done = true;
  });
  // Partition lands after the SYN but before setup completes.
  engine_.ScheduleAfter(kLinkLatency + Microseconds(10),
                        [&] { network_.Partition("a", "b"); });
  engine_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

// A connection resolves its two endpoints' slots once. A payload and
// a close notification that reach an endpoint destroyed meanwhile run
// in no lane, as a lookup by address would have them, and read nothing
// of the freed endpoint (the sanitizer build checks the second half).
TEST_F(NetTest, DeliveryToDestroyedEndpointRunsInNoLane) {
  auto a = std::make_unique<Endpoint>(network_, "a");
  Endpoint b(network_, "b");
  a->SetLane(engine_.lane_checker().RegisterLane("a"));
  b.SetLane(engine_.lane_checker().RegisterLane("b"));
  auto [client, server] = MustConnect(*a, b);
  std::vector<LaneId> lanes;
  client->set_on_message([&](Payload) {
    lanes.push_back(engine_.lane_checker().current_lane());
  });
  client->set_on_disconnect(
      [&] { lanes.push_back(engine_.lane_checker().current_lane()); });

  ASSERT_TRUE(server->Send(Payload::Text("late")).ok());
  a.reset();  // the receiver goes while the payload is on the wire
  engine_.Run();
  server->Close();  // notifies the side whose endpoint is gone
  engine_.Run();
  EXPECT_EQ(lanes, (std::vector<LaneId>{kNoLane, kNoLane}));
}

// Seeded walks of connects, sends, closes, crashes and endpoints going
// and coming back (with a new lane) under the same address. Every
// delivery, close notification and connect completion runs in the lane
// that looking its endpoint up by address gives.
TEST_F(NetTest, DeliveryLanesMatchLookupByAddress) {
  const std::vector<std::string> addresses = {"e0", "e1", "e2", "e3"};
  int checked = 0;
  int unregistered = 0;  // of those, at an address with no endpoint
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Engine engine;
    Network network(engine);
    Rng rng(seed);
    std::map<std::string, std::unique_ptr<Endpoint>> live;
    std::vector<ConnHandlePtr> handles;
    auto expect_lane = [&](const std::string& address, const char* what) {
      Endpoint* endpoint = network.Find(address);
      if (endpoint == nullptr) ++unregistered;
      const LaneId want = endpoint != nullptr ? endpoint->lane() : kNoLane;
      EXPECT_EQ(engine.lane_checker().current_lane(), want)
          << what << " at " << address << ", seed " << seed;
      ++checked;
    };
    auto adopt = [&](ConnHandlePtr handle, const std::string& own) {
      handle->set_on_message(
          [&, own](Payload) { expect_lane(own, "message"); });
      handle->set_on_disconnect([&, own] { expect_lane(own, "close"); });
      handles.push_back(std::move(handle));
    };
    auto register_at = [&](const std::string& address) {
      auto endpoint = std::make_unique<Endpoint>(network, address);
      endpoint->SetLane(engine.lane_checker().RegisterLane(
          address + "/" + std::to_string(rng.UniformInt(3))));
      endpoint->Listen(
          [&, address](ConnHandlePtr h) { adopt(std::move(h), address); });
      live[address] = std::move(endpoint);
    };
    for (const std::string& address : addresses) register_at(address);

    for (int step = 0; step < 400; ++step) {
      const std::string& address = addresses[rng.UniformInt(addresses.size())];
      std::erase_if(handles, [](const ConnHandlePtr& h) {
        return !h->connected();
      });
      const std::uint64_t action = rng.UniformInt(20);
      if (action < 3) {
        if (live.count(address) != 0) {
          const std::string& to = addresses[rng.UniformInt(addresses.size())];
          live[address]->Connect(to, [&, address](StatusOr<ConnHandlePtr> r) {
            expect_lane(address, "connect");
            if (r.ok()) adopt(std::move(r).value(), address);
          });
        }
      } else if (action < 13) {
        if (!handles.empty()) {
          ASSERT_TRUE(handles[rng.UniformInt(handles.size())]
                          ->Send(Payload::Text("m"))
                          .ok());
        }
      } else if (action == 13) {
        if (!handles.empty()) handles[rng.UniformInt(handles.size())]->Close();
      } else if (action == 14) {
        network.CrashEndpoint(address);
      } else if (action == 15) {
        if (live.count(address) != 0) {
          live.erase(address);
        } else {
          register_at(address);
        }
      } else {
        engine.RunFor(
            Microseconds(static_cast<std::int64_t>(rng.UniformInt(200))));
      }
    }
    engine.Run();
  }
  EXPECT_GT(checked, 1000);
  EXPECT_GT(unregistered, 0);
}

}  // namespace
}  // namespace kd::net
