// Simulated message-passing network.
//
// Models exactly what the paper's state machine (appendix TLA+ spec)
// assumes about the transport between controllers:
//   - a Connection is an ordered FIFO of in-flight messages
//     (`inflight: Seq(...)`);
//   - disconnecting drops everything in flight and flips
//     `connected` to FALSE on both ends;
//   - reconnection is an explicit higher-level act (the handshake
//     protocol of §4.2), not something the transport does silently.
//
// A message is a Payload: an immutable body shared in-process between
// sender and receiver, plus the byte count its encoding would occupy
// on a real wire. Nothing is serialized on the way; latency, bandwidth
// and the byte accounting are charged from that count, so the benches
// still account for the 64 B KubeDirect messages vs 17 KB full API
// objects. Failure injection (partitions, endpoint crashes) is first
// class: the property tests drive it from a seeded RNG.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/lane.h"
#include "common/status.h"
#include "common/time.h"
#include "sim/engine.h"

namespace kd::net {

class Endpoint;
class Connection;

// What a Connection carries. The body is shared, never copied or
// encoded: the receiver reads the very object the sender built.
// `bytes` is the sender's exact statement of what that body would
// occupy on the wire; the network charges latency, bandwidth and
// total_bytes() from it alone.
class Payload {
 public:
  Payload() = default;

  template <typename T>
  static Payload Of(T body, std::size_t bytes) {
    Payload p;
    p.body_ = std::make_shared<const T>(std::move(body));
    p.type_ = &typeid(T);
    p.bytes_ = bytes;
    return p;
  }
  // Plain text, charged at its length.
  static Payload Text(std::string text) {
    const std::size_t bytes = text.size();
    return Of(std::move(text), bytes);
  }

  // The body as a T; null when it holds another type.
  template <typename T>
  std::shared_ptr<const T> body() const {
    if (type_ == nullptr || *type_ != typeid(T)) return nullptr;
    return std::static_pointer_cast<const T>(body_);
  }
  std::size_t bytes() const { return bytes_; }

 private:
  std::shared_ptr<const void> body_;
  const std::type_info* type_ = nullptr;
  std::size_t bytes_ = 0;
};

// One side's view of an established bidirectional connection.
class KD_LANE_SEAM ConnHandle {
 public:
  ConnHandle(std::shared_ptr<Connection> conn, int side);

  bool connected() const;
  const std::string& peer_address() const;

  // Queues `payload` for ordered delivery to the peer. Fails with
  // kUnavailable when the connection is already closed. The message may
  // still be lost if the connection closes before delivery — exactly
  // the TLA+ "inflight dropped on disconnect" semantics.
  Status Send(Payload payload);

  // Delivery callback; invoked in FIFO order per direction.
  void set_on_message(std::function<void(Payload)> cb);
  // Invoked once when the connection transitions to closed (from either
  // side or from a partition).
  void set_on_disconnect(std::function<void()> cb);

  // Actively closes the connection: local side observes the close
  // immediately, the peer after one-way latency. All in-flight messages
  // are dropped.
  void Close();

 private:
  friend class Connection;
  std::shared_ptr<Connection> conn_;
  int side_;
};

using ConnHandlePtr = std::shared_ptr<ConnHandle>;

struct NetworkConfig {
  // One-way propagation latency between any two endpoints.
  Duration latency = Microseconds(50);
  // Serialization onto the wire; 0 disables the bandwidth model.
  double bytes_per_second = 1.25e9;  // 10 Gbps
  // How long the survivor of a partition / remote crash takes to notice
  // the connection died (keepalive timeout).
  Duration disconnect_detect_delay = Milliseconds(5);
};

class KD_LANE_SEAM Network {
 public:
  Network(sim::Engine& engine, NetworkConfig config = {});

  sim::Engine& engine() { return engine_; }
  const NetworkConfig& config() const { return config_; }

  // Endpoint registration (done by Endpoint's constructor/destructor).
  void Register(Endpoint* endpoint);
  void Unregister(Endpoint* endpoint);
  Endpoint* Find(const std::string& address) const;

  // --- Failure injection -------------------------------------------
  // Severs connectivity between the two addresses: existing connections
  // close (each side notified after disconnect_detect_delay) and new
  // Connect attempts fail until Heal().
  void Partition(const std::string& a, const std::string& b);
  void Heal(const std::string& a, const std::string& b);
  bool Reachable(const std::string& a, const std::string& b) const;

  // Closes every connection touching `address`, as if the process
  // crashed. The endpoint itself stays registered so a restarted
  // component can listen/connect again.
  void CrashEndpoint(const std::string& address);

  // Bumped on every CrashEndpoint(address). Connect captures both
  // endpoints' epochs at initiation and validates them when the SYN
  // lands, so a crash while the connect is in flight yields a timeout
  // (or, for the connector's own crash, silence) instead of a
  // half-open connection to a dead process.
  std::uint64_t crash_epoch(const std::string& address) const;

  // --- Accounting ---------------------------------------------------
  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  // Test hook: sees every payload a connection accepts for sending,
  // synchronously inside Send. It must not schedule or send; unset
  // outside tests.
  using SendObserver = std::function<void(const Payload&)>;
  void set_send_observer(SendObserver observer) {
    send_observer_ = std::move(observer);
  }

 private:
  friend class Connection;
  friend class Endpoint;

  void AccountSend(const Payload& payload) {
    ++total_messages_;
    total_bytes_ += payload.bytes();
    if (send_observer_) send_observer_(payload);
  }
  // The lane of the endpoint now registered in `slot`; kNoLane when
  // none is.
  LaneId LaneOf(std::size_t slot) const;

  sim::Engine& engine_;
  NetworkConfig config_;
  // One slot per address ever registered, holding the endpoint now
  // registered there (null after it unregisters). An address keeps its
  // slot, so a connection resolves its two ends once, when it is made,
  // and still reaches an endpoint registered again under the same
  // address, as a lookup by address would.
  std::map<std::string, std::size_t> slot_of_;
  std::vector<Endpoint*> slots_;
  std::set<std::pair<std::string, std::string>> partitions_;  // normalized
  std::set<std::weak_ptr<Connection>, std::owner_less<>> connections_;
  std::map<std::string, std::uint64_t> crash_epochs_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  SendObserver send_observer_;
};

// A named attachment point: listens for connections and initiates them.
class KD_LANE_SEAM Endpoint {
 public:
  Endpoint(Network& network, std::string address);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& address() const { return address_; }
  Network& network() { return network_; }

  // Lane-checker seam: message/disconnect/accept callbacks delivered
  // to this endpoint run re-scoped to its owning component's lane
  // (kNoLane for unwired endpoints — their callbacks stay unchecked).
  void SetLane(LaneId lane) { lane_ = lane; }
  LaneId lane() const { return lane_; }

  // Accept handler for inbound connections; replaces any previous one.
  void Listen(std::function<void(ConnHandlePtr)> on_accept);
  bool listening() const { return static_cast<bool>(on_accept_); }
  void StopListening() { on_accept_ = nullptr; }

  // Initiates a connection to `to`. Completes asynchronously after one
  // round trip; fails with kUnavailable if the target is unreachable,
  // not registered, or not listening.
  void Connect(const std::string& to,
               std::function<void(StatusOr<ConnHandlePtr>)> done);

 private:
  friend class Network;
  friend class Connection;

  Network& network_;
  std::string address_;
  std::size_t slot_ = 0;  // set by Network::Register
  std::function<void(ConnHandlePtr)> on_accept_;
  LaneId lane_ = kNoLane;
};

}  // namespace kd::net
