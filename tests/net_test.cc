// Unit tests for the simulated network: connection setup, ordered
// delivery, disconnect semantics (in-flight drops), partitions, crash,
// and the payload seam (the declared byte count, not the body, is what
// the wire charges).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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
  for (int i = 0; i < 20; ++i) EXPECT_EQ(received[i], "msg" + std::to_string(i));
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
  engine_.ScheduleAfter(network_.config().latency / 2,
                        [&] { network_.CrashEndpoint("b"); });
  engine_.Run();
  ASSERT_TRUE(done);  // must not hang half-open
  EXPECT_FALSE(accepted);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // Failure is observed as a connect timeout, not instantly.
  EXPECT_GE(done_at, network_.config().latency +
                         network_.config().disconnect_detect_delay);
}

TEST_F(NetTest, ConnectorCrashWithSynInFlightStaysSilent) {
  Endpoint a(network_, "a"), b(network_, "b");
  b.Listen([](ConnHandlePtr) {});
  bool called = false;
  a.Connect("b", [&](StatusOr<ConnHandlePtr>) { called = true; });
  // The connector dies while its own SYN is on the wire: its process
  // is gone, so no completion callback may fire into it.
  engine_.ScheduleAfter(network_.config().latency / 2,
                        [&] { network_.CrashEndpoint("a"); });
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
  engine_.ScheduleAfter(network_.config().latency + Microseconds(10),
                        [&] { network_.Partition("a", "b"); });
  engine_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace kd::net
