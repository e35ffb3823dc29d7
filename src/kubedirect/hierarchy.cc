#include "kubedirect/hierarchy.h"

#include <algorithm>

#include "common/check.h"
#include "kubedirect/materialize.h"

namespace kd::kubedirect {

// --- HierarchyClient ---------------------------------------------------

HierarchyClient::HierarchyClient(
    sim::Engine& engine, const CostModel& cost, net::Endpoint& endpoint,
    std::string peer_address, runtime::ObjectCache& cache,
    std::string kind_filter,
    std::function<bool(const model::ApiObject&)> scope, Callbacks callbacks,
    MetricsRecorder* metrics, FaultPoint* fault)
    : engine_(engine),
      cost_(cost),
      endpoint_(endpoint),
      peer_(std::move(peer_address)),
      cache_(cache),
      kind_filter_(std::move(kind_filter)),
      scope_(std::move(scope)),
      callbacks_(std::move(callbacks)),
      metrics_(metrics),
      fault_(fault),
      backoff_(cost.kd_reconnect_backoff) {
  if (metrics != nullptr) {
    handshake_latency_ = metrics->ResolveSamples("kd_handshake_latency");
    handshake_count_ = metrics->ResolveCounter("kd_handshakes");
    orphan_count_ = metrics->ResolveCounter("kd_soft_invalidate_orphans");
  }
}

HierarchyClient::~HierarchyClient() { Stop(); }

bool HierarchyClient::InScope(const model::ApiObject& obj) const {
  if (!kind_filter_.empty() && obj.kind != kind_filter_) return false;
  return !scope_ || scope_(obj);
}

void HierarchyClient::Start() {
  if (started_) return;
  started_ = true;
  Connect();
}

void HierarchyClient::Stop() {
  started_ = false;
  ready_ = false;
  ++epoch_;
  if (link_) {
    link_->Close();
    link_.reset();
  }
}

void HierarchyClient::Connect() {
  if (!started_ || connecting_) return;
  connecting_ = true;
  const std::uint64_t epoch = epoch_;
  std::weak_ptr<const bool> alive = alive_;
  endpoint_.Connect(peer_, [this, epoch,
                            alive](StatusOr<net::ConnHandlePtr> r) {
    if (alive.expired()) return;
    connecting_ = false;
    if (epoch != epoch_ || !started_) return;
    if (!r.ok()) {
      if (callbacks_.on_connect_failed) callbacks_.on_connect_failed();
      if (!started_) return;  // the failure callback may have stopped us
      // Retry with exponential backoff (capped).
      const Duration delay = backoff_;
      backoff_ = std::min<Duration>(backoff_ * 2,
                                    cost_.kd_reconnect_backoff * 64);
      engine_.ScheduleAfter(delay, [this, epoch, alive] {
        if (alive.expired()) return;
        if (epoch == epoch_ && started_) Connect();
      });
      return;
    }
    backoff_ = cost_.kd_reconnect_backoff;
    OnConnected(std::move(r).value());
  });
}

void HierarchyClient::OnConnected(net::ConnHandlePtr conn) {
  link_ = std::make_shared<KdLink>(engine_, cost_, std::move(conn), metrics_);
  link_->Bind([this](const WireMessage& msg) { OnMessage(msg); },
              [this] { OnDisconnect(); });
  // Server speaks first (StateVersions); we wait.
  handshake_started_ = engine_.now();
  pending_changes_ = {};
  awaiting_snapshot_ = false;
}

void HierarchyClient::OnDisconnect() {
  const bool was_ready = ready_;
  ready_ = false;
  ++epoch_;
  link_.reset();
  if (was_ready && callbacks_.on_down) callbacks_.on_down();
  if (started_) {
    const std::uint64_t epoch = epoch_;
    std::weak_ptr<const bool> alive = alive_;
    engine_.ScheduleAfter(backoff_, [this, epoch, alive] {
      if (alive.expired()) return;
      if (epoch == epoch_ && started_) Connect();
    });
  }
}

void HierarchyClient::HandleStateVersions(const WireMessage& msg) {
  // Scoped view of our cache (single pass, no object copies).
  std::map<std::string, std::uint64_t> mine;
  cache_.ForEachVisible([&](const model::ApiObject& obj) {
    if (InScope(obj)) {
      mine.emplace_hint(mine.end(), obj.Key(), obj.ContentHash());
    }
  });

  std::vector<std::string> to_fetch;
  if (mine.empty()) {
    // Recover mode: adopt everything the downstream has (Fig. 6).
    for (const auto& [key, hash] : msg.versions) to_fetch.push_back(key);
  } else {
    // Reset mode: fetch only differing keys; invalidate keys the
    // downstream no longer holds.
    for (const auto& [key, hash] : msg.versions) {
      auto it = mine.find(key);
      if (it == mine.end() || it->second != hash) to_fetch.push_back(key);
    }
    for (const auto& [key, hash] : mine) {
      if (msg.versions.count(key) == 0) {
        cache_.MarkInvalid(key);
        pending_changes_.invalidated.push_back(key);
      }
    }
  }

  if (to_fetch.empty()) {
    FinishHandshake();
    return;
  }
  WireMessage request;
  request.type = WireMessage::Type::kStateRequest;
  request.keys = std::move(to_fetch);
  awaiting_snapshot_ = true;
  link_->SendNow(std::move(request));
}

void HierarchyClient::HandleStateSnapshot(const WireMessage& msg) {
  // The batch is shared, so each object is copied into the cache; only
  // handshakes take this path.
  for (const model::ApiObject& obj : msg.objects) {
    pending_changes_.updated.push_back(obj.Key());
    cache_.Upsert(obj);
  }
  awaiting_snapshot_ = false;
  FinishHandshake();
}

void HierarchyClient::FinishHandshake() {
  ready_ = true;
  ++handshakes_;
  handshake_latency_.RecordDuration(engine_.now() - handshake_started_);
  handshake_count_.Add();
  if (callbacks_.on_ready) callbacks_.on_ready(pending_changes_);
  pending_changes_ = {};
}

void HierarchyClient::OnMessage(const WireMessage& msg) {
  // Numbered-message crash seam: an armed index surprise-shuts the
  // owning controller down mid-receive; the message dies with it.
  if (fault_ != nullptr && fault_->Tick()) return;
  switch (msg.type) {
    case WireMessage::Type::kStateVersions:
      HandleStateVersions(msg);
      break;
    case WireMessage::Type::kStateSnapshot:
      if (awaiting_snapshot_) HandleStateSnapshot(msg);
      break;
    case WireMessage::Type::kRemove:
      // Live invalidation from the source of truth.
      if (callbacks_.on_remove) callbacks_.on_remove(msg.key);
      break;
    case WireMessage::Type::kSoftInvalidate: {
      // Merge the downstream's state change into our cache, then notify
      // the controller so it can propagate further upstream. Unknown
      // objects are only materialized from self-contained messages
      // (whole-section literals — the recovery relay of Anomaly #2's
      // restarted-Scheduler path, where the downstream legitimately
      // knows pods we do not). A dotted-path delta for an object we do
      // not hold cannot be materialized — it carries only the changed
      // attributes, and fabricating a partial object would corrupt
      // upstream accounting (an ownerless phantom pod the ReplicaSet
      // controller can neither count nor delete). Such a delta means
      // the downstream runs a stale incarnation we dropped (e.g. a
      // victim reporting ready after its tombstone raced the link);
      // termination is idempotent (§4.3), so answer with the removal
      // intent and let the downstream settle.
      if (cache_.Get(msg.message.obj_key) == nullptr &&
          !IsSelfContained(msg.message)) {
        orphan_count_.Add();
        SendTombstone(msg.message.obj_key);
        break;
      }
      StatusOr<model::ApiObject> merged = Materialize(msg.message, cache_);
      if (merged.ok()) {
        cache_.Upsert(std::move(*merged));
      }
      if (callbacks_.on_soft_invalidate) {
        callbacks_.on_soft_invalidate(msg.message);
      }
      break;
    }
    default:
      // The typed in-process link carries only what the server sends.
      KD_CHECK(false, "HierarchyClient received a client-to-server message");
  }
}

bool HierarchyClient::SendUpsert(KdMessage msg) {
  if (!ready_ || !link_) return false;
  WireMessage wire;
  wire.type = WireMessage::Type::kUpsert;
  wire.message = std::move(msg);
  link_->Send(std::move(wire));
  return true;
}

bool HierarchyClient::SendTombstone(const std::string& key) {
  if (!ready_ || !link_) return false;
  WireMessage wire;
  wire.type = WireMessage::Type::kTombstone;
  wire.key = key;
  link_->Send(std::move(wire));
  return true;
}

bool HierarchyClient::SendTombstoneNow(const std::string& key) {
  if (!ready_ || !link_) return false;
  WireMessage wire;
  wire.type = WireMessage::Type::kTombstone;
  wire.key = key;
  link_->SendNow(std::move(wire));
  return true;
}

bool HierarchyClient::SendAck(const std::string& key) {
  if (!ready_ || !link_) return false;
  WireMessage wire;
  wire.type = WireMessage::Type::kAck;
  wire.key = key;
  link_->Send(std::move(wire));
  return true;
}

// --- HierarchyServer ---------------------------------------------------

HierarchyServer::HierarchyServer(sim::Engine& engine, const CostModel& cost,
                                 net::Endpoint& endpoint,
                                 runtime::ObjectCache& cache,
                                 std::string kind_filter, Callbacks callbacks,
                                 MetricsRecorder* metrics, FaultPoint* fault)
    : engine_(engine),
      cost_(cost),
      endpoint_(endpoint),
      cache_(cache),
      kind_filter_(std::move(kind_filter)),
      callbacks_(std::move(callbacks)),
      metrics_(metrics),
      fault_(fault) {}

void HierarchyServer::Start() {
  if (started_) return;
  started_ = true;
  endpoint_.Listen(
      [this](net::ConnHandlePtr conn) { OnAccept(std::move(conn)); });
}

void HierarchyServer::Stop() {
  started_ = false;
  endpoint_.StopListening();
  if (link_) {
    link_->Close();
    link_.reset();
  }
}

void HierarchyServer::OnAccept(net::ConnHandlePtr conn) {
  // A new upstream (e.g. restarted) supersedes the old connection.
  if (link_) link_->Close();
  link_ = std::make_shared<KdLink>(engine_, cost_, std::move(conn), metrics_);
  link_->Bind([this](const WireMessage& msg) { OnMessage(msg); }, [this] {});
  // Server side of Fig. 6: respond immediately with our state — the
  // version map (round one of the two-round optimization).
  WireMessage versions;
  versions.type = WireMessage::Type::kStateVersions;
  cache_.ForEachVisible([&](const model::ApiObject& obj) {
    if (!kind_filter_.empty() && obj.kind != kind_filter_) return;
    versions.versions.emplace_hint(versions.versions.end(), obj.Key(),
                                   obj.ContentHash());
  });
  link_->SendNow(std::move(versions));
  if (callbacks_.on_upstream_connected) callbacks_.on_upstream_connected();
}

void HierarchyServer::OnMessage(const WireMessage& msg) {
  // Numbered-message crash seam (see HierarchyClient::OnMessage).
  if (fault_ != nullptr && fault_->Tick()) return;
  switch (msg.type) {
    case WireMessage::Type::kStateRequest: {
      WireMessage snapshot;
      snapshot.type = WireMessage::Type::kStateSnapshot;
      for (const std::string& key : msg.keys) {
        if (const model::ApiObject* obj = cache_.Get(key)) {
          snapshot.objects.push_back(*obj);
        }
      }
      link_->SendNow(std::move(snapshot));
      break;
    }
    case WireMessage::Type::kUpsert:
      if (callbacks_.on_upsert) callbacks_.on_upsert(msg.message);
      break;
    case WireMessage::Type::kTombstone:
      if (callbacks_.on_tombstone) callbacks_.on_tombstone(msg.key);
      break;
    case WireMessage::Type::kAck:
      if (callbacks_.on_ack) callbacks_.on_ack(msg.key);
      break;
    default:
      // The typed in-process link carries only what the client sends.
      KD_CHECK(false, "HierarchyServer received a server-to-client message");
  }
}

bool HierarchyServer::SendRemove(const std::string& key) {
  if (!upstream_connected()) return false;
  WireMessage wire;
  wire.type = WireMessage::Type::kRemove;
  wire.key = key;
  link_->Send(std::move(wire));
  return true;
}

bool HierarchyServer::SendRemoveNow(const std::string& key) {
  if (!upstream_connected()) return false;
  WireMessage wire;
  wire.type = WireMessage::Type::kRemove;
  wire.key = key;
  link_->SendNow(std::move(wire));
  return true;
}

bool HierarchyServer::SendSoftInvalidate(KdMessage msg) {
  if (!upstream_connected()) return false;
  WireMessage wire;
  wire.type = WireMessage::Type::kSoftInvalidate;
  wire.message = std::move(msg);
  link_->Send(std::move(wire));
  return true;
}

}  // namespace kd::kubedirect
