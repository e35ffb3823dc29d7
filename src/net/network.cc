#include "net/network.h"

#include <cassert>

#include "common/check.h"

namespace kd::net {

namespace {
std::pair<std::string, std::string> NormalizedPair(const std::string& a,
                                                   const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

// Shared state of one established connection. Lives as long as either
// side holds its ConnHandle (or a delivery event is in flight).
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  // `slot0`/`slot1`: the network's endpoint slots of the two
  // addresses, resolved once when the connection is made.
  Connection(Network& network, std::string addr0, std::size_t slot0,
             std::string addr1, std::size_t slot1)
      : network_(network) {
    sides_[0].address = std::move(addr0);
    sides_[0].slot = slot0;
    sides_[1].address = std::move(addr1);
    sides_[1].slot = slot1;
  }

  bool open() const { return open_; }
  const std::string& address(int side) const { return sides_[side].address; }

  Status Send(int from_side, Payload payload) {
    if (!open_ || sides_[from_side].closed_seen) {
      return UnavailableError("connection closed");
    }
    network_.AccountSend(payload);
    const Duration wire =
        kLinkLatency +
        SecondsF(static_cast<double>(payload.bytes()) / kLinkBytesPerSecond);
    sim::Engine& engine = network_.engine();
    Side& to = sides_[1 - from_side];
    Time deliver_at = engine.now() + wire;
    // FIFO per direction: never deliver before an earlier message.
    if (deliver_at < to.next_delivery_time) deliver_at = to.next_delivery_time;
    to.next_delivery_time = deliver_at;

    // Sanctioned seam: the LaneScope below runs delivery in the
    // receiving endpoint's lane, read from its slot at delivery: an
    // endpoint destroyed meanwhile reads as kNoLane, never as freed
    // memory.
    auto weak = weak_from_this();
    const int to_side = 1 - from_side;
    engine.ScheduleAt(
        deliver_at,
        [weak, to_side, payload = std::move(payload)]() mutable {
          auto conn = weak.lock();
          if (!conn || !conn->open_) return;  // dropped in flight
          Side& side = conn->sides_[to_side];
          if (side.closed_seen) return;
          Network& net = conn->network_;
          sim::LaneScope lane_scope(net.engine().lane_checker(),
                                    net.LaneOf(side.slot));
          if (side.on_message) side.on_message(std::move(payload));
        });
    return OkStatus();
  }

  void SetOnMessage(int side, std::function<void(Payload)> cb) {
    sides_[side].on_message = std::move(cb);
  }
  void SetOnDisconnect(int side, std::function<void()> cb) {
    sides_[side].on_disconnect = std::move(cb);
  }

  // Closes the connection. Each side observes the close after its given
  // delay (<0 means "never notify", used for crashed processes whose
  // callbacks must not fire).
  void Close(Duration notify_delay_side0, Duration notify_delay_side1) {
    if (!open_) return;
    open_ = false;
    NotifySide(0, notify_delay_side0);
    NotifySide(1, notify_delay_side1);
  }

  bool side_closed(int side) const { return sides_[side].closed_seen; }

  // Active close by `side`: that side observes the close immediately,
  // the peer after one-way latency (FIN propagation).
  void CloseFrom(int side) {
    if (side == 0) {
      Close(/*side0=*/0, /*side1=*/kLinkLatency);
    } else {
      Close(/*side0=*/kLinkLatency, /*side1=*/0);
    }
  }

 private:
  void NotifySide(int side, Duration delay) {
    if (delay < 0) {
      sides_[side].closed_seen = true;  // silent: crashed process
      return;
    }
    // Seam to the notified side: its LaneScope runs the handler in
    // that side's lane (the closer's own for an active local close).
    auto weak = weak_from_this();
    network_.engine().ScheduleAfter(delay, [weak, side] {
      auto conn = weak.lock();
      if (!conn) return;
      Side& s = conn->sides_[side];
      if (s.closed_seen) return;
      s.closed_seen = true;
      Network& net = conn->network_;
      sim::LaneScope lane_scope(net.engine().lane_checker(),
                                net.LaneOf(s.slot));
      if (s.on_disconnect) s.on_disconnect();
    });
  }

  struct Side {
    std::string address;
    std::size_t slot = 0;
    std::function<void(Payload)> on_message;
    std::function<void()> on_disconnect;
    bool closed_seen = false;
    Time next_delivery_time = 0;
  };

  Network& network_;
  Side sides_[2];
  bool open_ = true;
};

// --- ConnHandle ------------------------------------------------------

ConnHandle::ConnHandle(std::shared_ptr<Connection> conn, int side)
    : conn_(std::move(conn)), side_(side) {}

bool ConnHandle::connected() const {
  return conn_->open() && !conn_->side_closed(side_);
}
const std::string& ConnHandle::peer_address() const {
  return conn_->address(1 - side_);
}
Status ConnHandle::Send(Payload payload) {
  return conn_->Send(side_, std::move(payload));
}
void ConnHandle::set_on_message(std::function<void(Payload)> cb) {
  conn_->SetOnMessage(side_, std::move(cb));
}
void ConnHandle::set_on_disconnect(std::function<void()> cb) {
  conn_->SetOnDisconnect(side_, std::move(cb));
}
void ConnHandle::Close() {
  // Local side sees the close now; the peer after one-way latency.
  conn_->CloseFrom(side_);
}

// --- Network ---------------------------------------------------------

Network::Network(sim::Engine& engine) : engine_(engine) {}

void Network::Register(Endpoint* endpoint) {
  auto [it, added] = slot_of_.try_emplace(endpoint->address(), slots_.size());
  if (added) slots_.push_back(nullptr);
  KD_CHECK(slots_[it->second] == nullptr, "duplicate endpoint address");
  slots_[it->second] = endpoint;
  endpoint->slot_ = it->second;
}

void Network::Unregister(Endpoint* endpoint) {
  slots_[endpoint->slot_] = nullptr;
}

Endpoint* Network::Find(const std::string& address) const {
  auto it = slot_of_.find(address);
  return it == slot_of_.end() ? nullptr : slots_[it->second];
}

LaneId Network::LaneOf(std::size_t slot) const {
  const Endpoint* endpoint = slots_[slot];
  return endpoint != nullptr ? endpoint->lane() : kNoLane;
}

bool Network::Reachable(const std::string& a, const std::string& b) const {
  return partitions_.count(NormalizedPair(a, b)) == 0;
}

void Network::Partition(const std::string& a, const std::string& b) {
  partitions_.insert(NormalizedPair(a, b));
  // Existing connections between the pair die; both sides detect the
  // loss after the keepalive timeout.
  for (auto it = connections_.begin(); it != connections_.end();) {
    auto conn = it->lock();
    if (!conn) {
      it = connections_.erase(it);
      continue;
    }
    const bool matches = (conn->address(0) == a && conn->address(1) == b) ||
                         (conn->address(0) == b && conn->address(1) == a);
    if (matches && conn->open()) {
      conn->Close(kDisconnectDetectDelay, kDisconnectDetectDelay);
    }
    ++it;
  }
}

void Network::Heal(const std::string& a, const std::string& b) {
  partitions_.erase(NormalizedPair(a, b));
}

std::uint64_t Network::crash_epoch(const std::string& address) const {
  auto it = crash_epochs_.find(address);
  return it == crash_epochs_.end() ? 0 : it->second;
}

void Network::CrashEndpoint(const std::string& address) {
  ++crash_epochs_[address];
  for (auto it = connections_.begin(); it != connections_.end();) {
    auto conn = it->lock();
    if (!conn) {
      it = connections_.erase(it);
      continue;
    }
    if (conn->open() &&
        (conn->address(0) == address || conn->address(1) == address)) {
      // The crashed side is never notified (its process is gone); the
      // survivor notices after the keepalive timeout.
      const Duration d0 =
          conn->address(0) == address ? Duration{-1} : kDisconnectDetectDelay;
      const Duration d1 =
          conn->address(1) == address ? Duration{-1} : kDisconnectDetectDelay;
      conn->Close(d0, d1);
    }
    ++it;
  }
}

// --- Endpoint --------------------------------------------------------

Endpoint::Endpoint(Network& network, std::string address)
    : network_(network), address_(std::move(address)) {
  network_.Register(this);
}

Endpoint::~Endpoint() { network_.Unregister(this); }

void Endpoint::Listen(std::function<void(ConnHandlePtr)> on_accept) {
  on_accept_ = std::move(on_accept);
}

void Endpoint::Connect(const std::string& to,
                       std::function<void(StatusOr<ConnHandlePtr>)> done) {
  const std::string from = address_;
  const std::size_t from_slot = slot_;
  Network& net = network_;
  // SYN travels one way; the accept + SYN-ACK another. Failures are
  // reported after the keepalive timeout, like a real connect timeout.
  // Either endpoint crashing while the handshake is in flight
  // invalidates it (observed via the crash epochs): the connector's
  // own crash silences the callback (its process is gone); the
  // target's crash times the connect out instead of leaving a
  // half-open connection to a dead process.
  const std::uint64_t from_epoch = net.crash_epoch(from);
  const std::uint64_t to_epoch = net.crash_epoch(to);
  // The SYN resolves its target on arrival; the accept runs in the
  // target's lane, and each report back in the connector's.
  net.engine_.ScheduleAfter(kLinkLatency,
                            [&net, from, from_slot, to, from_epoch, to_epoch,
                             done = std::move(done)]() {
    if (net.crash_epoch(from) != from_epoch) return;  // connector died
    Endpoint* target = net.Find(to);
    if (target == nullptr || !target->listening() ||
        !net.Reachable(from, to) || net.crash_epoch(to) != to_epoch) {
      // Connect-timeout report travels back to the connector.
      net.engine_.ScheduleAfter(
          kDisconnectDetectDelay,
          [&net, done = std::move(done), from, from_slot, from_epoch, to] {
            if (net.crash_epoch(from) != from_epoch) return;
            sim::LaneScope lane_scope(net.engine_.lane_checker(),
                                      net.LaneOf(from_slot));
            done(UnavailableError("connect to " + to + " failed"));
          });
      return;
    }
    auto conn =
        std::make_shared<Connection>(net, from, from_slot, to, target->slot_);
    net.connections_.insert(conn);
    auto server_handle = std::make_shared<ConnHandle>(conn, 1);
    {
      sim::LaneScope lane_scope(net.engine_.lane_checker(), target->lane());
      target->on_accept_(server_handle);
    }
    // SYN-ACK: back to the connector after one-way latency.
    net.engine_.ScheduleAfter(kLinkLatency,
                              [&net, conn, from, from_slot, from_epoch, to,
                               done = std::move(done)]() {
      if (net.crash_epoch(from) != from_epoch) return;  // connector died
      sim::LaneScope lane_scope(net.engine_.lane_checker(),
                                net.LaneOf(from_slot));
      if (!conn->open() || !net.Reachable(from, to)) {
        done(UnavailableError("connection lost during setup"));
        return;
      }
      done(std::make_shared<ConnHandle>(conn, 0));
    });
  });
}

}  // namespace kd::net
