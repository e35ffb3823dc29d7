// The pairwise state management of §4.2: each adjacent controller pair
// in the narrow waist behaves as one level of a hierarchical
// write-back cache.
//
//   - The upstream controller runs a HierarchyClient per downstream
//     peer. It opportunistically forwards state (Upserts, Tombstones)
//     and receives invalidations back.
//   - The downstream controller runs a HierarchyServer. As the source
//     of truth of the pair, it answers handshakes from its local cache
//     and pushes soft invalidations / removals upstream.
//
// Handshake (Fig. 6, with the two-round version-number optimization):
//   1. client connects; server replies StateVersions (key -> hash of
//      its visible cache);
//   2. client, in *recover* mode (its scoped cache is empty) requests
//      everything; in *reset* mode it requests only keys whose hash
//      differs and marks invalid the scoped keys the server no longer
//      has;
//   3. server replies StateSnapshot (full objects — the only time full
//      objects cross a KubeDirect link);
//   4. client merges, reports ready with the change set, which the
//      controller propagates to *its* upstream as soft invalidations.
//
// Reconnection is automatic with exponential backoff; every reconnect
// re-runs the handshake (hard invalidation).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/fault_point.h"
#include "common/lane.h"
#include "common/metrics.h"
#include "kubedirect/link.h"
#include "kubedirect/message.h"
#include "net/network.h"
#include "runtime/cache.h"
#include "sim/engine.h"

namespace kd::kubedirect {

// What a completed handshake changed in the client's cache.
struct ChangeSet {
  std::vector<std::string> updated;  // overwritten with downstream state
  std::vector<std::string> invalidated;  // marked invalid (gone downstream)
  bool empty() const { return updated.empty() && invalidated.empty(); }
};

class KD_LANE_SEAM HierarchyClient {
 public:
  struct Callbacks {
    // Handshake complete; the change set must be propagated upstream.
    std::function<void(const ChangeSet&)> on_ready;
    // Downstream dropped an object (live invalidation). The controller
    // should reconcile and, once propagated, Ack(key).
    std::function<void(const std::string& key)> on_remove;
    // Downstream changed attributes of an object (soft invalidation),
    // already merged into the cache by the client. The delta is passed
    // through so mid-chain controllers can relay it further upstream.
    std::function<void(const KdMessage& delta)> on_soft_invalidate;
    // Connection lost (handshake will re-run on reconnect).
    std::function<void()> on_down;
    // A connect attempt failed (peer unreachable). Fired per attempt;
    // the Scheduler uses this to trigger node cancellation (§4.3).
    std::function<void()> on_connect_failed;
  };

  // `scope` restricts the handshake to the subset of `cache` shared
  // with this peer (e.g. pods bound to this Kubelet's node); null means
  // everything. `kind_filter`: only objects of this kind participate
  // ("" = all).
  // `fault` (optional): the owning controller's numbered-message crash
  // seam — every message received on this link ticks it; an armed
  // index drops that message and surprise-shuts the owner down.
  HierarchyClient(sim::Engine& engine, const CostModel& cost,
                  net::Endpoint& endpoint, std::string peer_address,
                  runtime::ObjectCache& cache, std::string kind_filter,
                  std::function<bool(const model::ApiObject&)> scope,
                  Callbacks callbacks, MetricsRecorder* metrics = nullptr,
                  FaultPoint* fault = nullptr);
  ~HierarchyClient();

  HierarchyClient(const HierarchyClient&) = delete;
  HierarchyClient& operator=(const HierarchyClient&) = delete;

  // Begins connecting (and keeps reconnecting until Stop()).
  void Start();
  void Stop();

  bool ready() const { return ready_; }
  const std::string& peer_address() const { return peer_; }

  // Opportunistic forwarding. Returns false (and drops) when the link
  // is not ready — the reconcile loop re-forwards after the next
  // handshake, so drops are safe (§4.1). A caller that is done with
  // its message moves it in.
  bool SendUpsert(KdMessage msg);
  bool SendTombstone(const std::string& key);
  // Acknowledges a Remove received from this downstream.
  bool SendAck(const std::string& key);
  // Immediate-flush variant used by synchronous termination (§4.3).
  bool SendTombstoneNow(const std::string& key);

  // Number of completed handshakes (test/bench observability).
  std::uint64_t handshakes_completed() const { return handshakes_; }

 private:
  void Connect();
  void OnConnected(net::ConnHandlePtr conn);
  void OnMessage(const WireMessage& msg);
  void OnDisconnect();
  void HandleStateVersions(const WireMessage& msg);
  void HandleStateSnapshot(const WireMessage& msg);
  void FinishHandshake();
  bool InScope(const model::ApiObject& obj) const;

  sim::Engine& engine_;
  const CostModel& cost_;
  net::Endpoint& endpoint_;
  std::string peer_;
  runtime::ObjectCache& cache_;
  std::string kind_filter_;
  std::function<bool(const model::ApiObject&)> scope_;
  Callbacks callbacks_;
  MetricsRecorder* metrics_;  // handed to each link
  MetricsRecorder::Samples handshake_latency_;  // "kd_handshake_latency"
  MetricsRecorder::Counter handshake_count_;    // "kd_handshakes"
  MetricsRecorder::Counter orphan_count_;  // "kd_soft_invalidate_orphans"
  FaultPoint* fault_;

  KdLinkPtr link_;
  bool started_ = false;
  bool ready_ = false;
  bool connecting_ = false;
  Duration backoff_;
  std::uint64_t epoch_ = 0;  // bumped by Stop/disconnect; stale events abort
  // Lifetime guard: connect callbacks and backoff retries are held by
  // the network/engine and can fire after this client is destroyed
  // (e.g. the Scheduler drops a node's state while a reconnect is
  // pending). They capture a weak_ptr to this token and bail once it
  // expires; `epoch_` alone cannot help — reading it would already
  // touch freed memory.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);

  // Handshake in progress:
  ChangeSet pending_changes_;
  bool awaiting_snapshot_ = false;
  Time handshake_started_ = 0;
  std::uint64_t handshakes_ = 0;
};

class KD_LANE_SEAM HierarchyServer {
 public:
  struct Callbacks {
    // Upstream forwarded an object (not yet materialized).
    std::function<void(const KdMessage&)> on_upsert;
    // Upstream replicated a tombstone (§4.3).
    std::function<void(const std::string& key)> on_tombstone;
    // Upstream acknowledged our Remove; invalid-marked entries for
    // `key` can be dropped.
    std::function<void(const std::string& key)> on_ack;
    // A (new) upstream completed its side of the handshake.
    std::function<void()> on_upstream_connected;
  };

  // `fault`: see HierarchyClient — received messages tick the owner's
  // crash seam.
  HierarchyServer(sim::Engine& engine, const CostModel& cost,
                  net::Endpoint& endpoint, runtime::ObjectCache& cache,
                  std::string kind_filter, Callbacks callbacks,
                  MetricsRecorder* metrics = nullptr,
                  FaultPoint* fault = nullptr);

  HierarchyServer(const HierarchyServer&) = delete;
  HierarchyServer& operator=(const HierarchyServer&) = delete;

  // Starts listening for the upstream.
  void Start();
  void Stop();

  bool upstream_connected() const { return link_ && link_->connected(); }

  // Backward signals (returns false if no upstream is connected —
  // the next handshake will carry the information instead).
  bool SendRemove(const std::string& key);
  bool SendSoftInvalidate(KdMessage msg);
  // Immediate-flush removal used to answer synchronous termination.
  bool SendRemoveNow(const std::string& key);

 private:
  void OnAccept(net::ConnHandlePtr conn);
  void OnMessage(const WireMessage& msg);

  sim::Engine& engine_;
  const CostModel& cost_;
  net::Endpoint& endpoint_;
  runtime::ObjectCache& cache_;
  std::string kind_filter_;
  Callbacks callbacks_;
  MetricsRecorder* metrics_;
  FaultPoint* fault_;
  KdLinkPtr link_;
  bool started_ = false;
};

}  // namespace kd::kubedirect
