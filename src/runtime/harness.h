// ControllerHarness: the shared substrate every narrow-waist controller
// runs on (the "~150 LoC per controller" claim of §3.1, Fig. 4, made
// structural).
//
// A controller used to assemble by hand: informer-fed caches, the
// ControlLoop, the ApiClient, its network endpoint, the KubeDirect
// HierarchyServer (upstream-facing) and HierarchyClient(s)
// (downstream-facing, including the Scheduler's per-Kubelet fan-out),
// the TombstoneTracker, and the crash/restart lifecycle that ties them
// together. The harness owns all of that; a controller shrinks to a
// policy class that declares its wiring once (SyncKind /
// WatchFiltered / ServeUpstream / ConnectDownstream) and provides the
// reconcile function and message handlers.
//
// Shared lifecycle semantics:
//   - Crash(): policy hook first (drop soft state), then tombstones,
//     tracked caches, control loop, informers, raw watches, the
//     network endpoint (connections die silently; peers detect the
//     loss via keepalive), and finally the Kd links — the exact
//     teardown order every hand-written controller used.
//   - Restart()/Start(): re-wires in declaration order and bumps the
//     session epoch (used e.g. for crash-unique pod names).
//   - §4.2 downstream-first recovery: an upstream declared with
//     `downstream_first` only starts listening once every
//     non-exempt downstream link is ready and the policy has marked
//     its baseline synced (SetBaselineSynced) — the handshake run
//     against us must reflect the recovered source of truth.
//   - Link-reset recovery is level-triggered (§4.1): a forward send
//     dropped while a link is down is repaired by the policy's own
//     on_ready callback, which re-enqueues its pending work after the
//     next handshake. The harness keeps no replay list of its own.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apiserver/client.h"
#include "common/fault_point.h"
#include "common/lane.h"
#include "kubedirect/hierarchy.h"
#include "kubedirect/tombstone.h"
#include "net/network.h"
#include "runtime/cache.h"
#include "runtime/control_loop.h"
#include "runtime/env.h"
#include "runtime/informer.h"
#include "runtime/mode.h"

namespace kd::runtime {

class KD_LANE_SEAM ControllerHarness {
 public:
  // Which mode(s) a wiring declaration applies to.
  enum class When { kBoth, kK8sOnly, kKdOnly };

  struct Options {
    std::string name;       // control-loop + metrics name
    std::string client_id;  // ApiClient identity (flowcontrol bucket)
    std::string address;    // this controller's network endpoint
    double qps = 0;
    double burst = 0;
    // Whether the ApiClient reports "<client_id>.active" busy time
    // (Kubelets historically do not).
    bool api_metrics = true;
  };

  struct UpstreamSpec {
    // Cache the handshake answers from (null = harness-owned empty
    // scratch, for the level-triggered "__none__" links).
    ObjectCache* cache = nullptr;
    std::string kind_filter;
    kubedirect::HierarchyServer::Callbacks callbacks;
    // §4.2 downstream-first recovery gating.
    bool downstream_first = false;
  };

  struct DownstreamSpec {
    std::string peer;
    ObjectCache* cache = nullptr;  // null = harness scratch
    std::string kind_filter;
    std::function<bool(const model::ApiObject&)> scope;
    kubedirect::HierarchyClient::Callbacks callbacks;
  };

  ControllerHarness(Env& env, Mode mode, Options options);
  ~ControllerHarness();

  ControllerHarness(const ControllerHarness&) = delete;
  ControllerHarness& operator=(const ControllerHarness&) = delete;

  // --- declarative wiring (call once, from the policy constructor) --
  // Informer-syncs `kind` into `cache` at every Start when the mode
  // matches. `cache` is auto-tracked for crash clearing.
  void SyncKind(ObjectCache& cache, std::string kind, When when = When::kBoth,
                std::function<void()> on_synced = nullptr);
  // Raw server-side filtered watch (no List; kubelet-style). The
  // handler is only invoked while not crashed.
  void WatchFiltered(std::string kind,
                     std::function<bool(const model::ApiObject&)> filter,
                     std::function<void(const apiserver::WatchEvent&)> handler,
                     When when = When::kBoth);
  void SetReconciler(ControlLoop::Reconciler reconcile);
  void ServeUpstream(UpstreamSpec spec);
  void ConnectDownstream(DownstreamSpec spec);
  // Registers a cache to be cleared on Crash (SyncKind does this
  // implicitly; ephemeral caches need it explicitly).
  void TrackCache(ObjectCache& cache);
  // Policy hooks. on_crash runs before any teardown (drop soft state);
  // on_start runs after all wiring is up.
  void OnStart(std::function<void()> hook) { on_start_ = std::move(hook); }
  void OnCrash(std::function<void()> hook) { on_crash_ = std::move(hook); }

  // --- lifecycle ----------------------------------------------------
  void Start();
  void Crash();
  void Restart() { Start(); }

  // --- dynamic downstream fan-out (Scheduler: one link per Kubelet) -
  // Creates and starts the link if it does not exist yet.
  void EnsureDownstream(const std::string& id, DownstreamSpec spec);
  kubedirect::HierarchyClient* downstream(const std::string& id);
  bool DownstreamReady(const std::string& id) const;
  // Exempt links (cancelled nodes) do not block the §4.2 gate. The
  // flag may be set before the link exists and survives until Crash.
  void SetDownstreamExempt(const std::string& id, bool exempt);
  bool DownstreamExempt(const std::string& id) const;
  // True once the baseline is synced and every non-exempt dynamic
  // downstream link is ready. O(1): a count of the links that are
  // neither, kept as links go ready or down and flags change.
  bool DownstreamsSettled() const {
    return baseline_synced_ && unsettled_downstreams_ == 0;
  }
  // Starts the downstream_first upstream iff settled (idempotent).
  void MaybeStartUpstream();
  // Policy signal that the downstream set is fully known (e.g. the
  // Node informer finished its initial list).
  void SetBaselineSynced(bool synced) { baseline_synced_ = synced; }

  // --- accessors ------------------------------------------------------
  Env& env() { return env_; }
  Mode mode() const { return mode_; }
  // This controller's runtime lane (registered under options.name).
  LaneId lane() const { return lane_; }
  bool crashed() const { return crashed_; }
  // Crash-restart epoch: bumped on every Start (1 after the first).
  std::uint64_t session() const { return session_; }
  ControlLoop& loop() { return loop_; }
  apiserver::ApiClient& api() { return api_; }
  net::Endpoint& endpoint() { return endpoint_; }
  kubedirect::TombstoneTracker& tombstones() { return tombstones_; }
  const kubedirect::TombstoneTracker& tombstones() const { return tombstones_; }
  kubedirect::HierarchyServer* upstream() { return upstream_.get(); }
  kubedirect::HierarchyClient* downstream() { return static_downstream_.get(); }
  bool link_ready() const {
    return static_downstream_ != nullptr && static_downstream_->ready();
  }

  // --- numbered-operation crash seams -------------------------------
  // handshake_fault(): ticked by every KubeDirect message this
  // controller receives, across all of its links (upstream server and
  // every downstream client). tombstone_fault(): ticked by every
  // TombstoneTracker::Add. An armed index drops that operation and
  // surprise-shuts the controller down (Crash() is deferred one engine
  // step — firing happens inside the very object Crash() destroys).
  // Restarting after a crash disarms both: the injected fault dies
  // with the process. Disarmed seams still count operations, so a
  // dry run measures how many points a scenario exercises.
  FaultPoint& handshake_fault() { return handshake_fault_; }
  FaultPoint& tombstone_fault() { return tombstone_fault_; }

 private:
  struct SyncBinding {
    ObjectCache* cache;
    std::string kind;
    When when;
    std::function<void()> on_synced;
    std::unique_ptr<Informer> informer;
  };
  struct WatchBinding {
    std::string kind;
    std::function<bool(const model::ApiObject&)> filter;
    std::function<void(const apiserver::WatchEvent&)> handler;
    When when;
    apiserver::WatchId id = 0;
    bool active = false;
    // Invalidates retry/relist chains of a dead watch generation.
    std::uint64_t arm_epoch = 0;
    // Shadow of the last state delivered per key (memory-only). After
    // a watch break the harness relists and diffs against this,
    // synthesizing the Added/Modified/Deleted events missed during the
    // outage — raw watches have no informer cache to diff with.
    std::map<std::string, model::ApiObject> last_seen;
  };

  bool ModeMatches(When when) const {
    return when == When::kBoth ||
           (when == When::kK8sOnly ? mode_ == Mode::kK8s : mode_ == Mode::kKd);
  }
  std::unique_ptr<kubedirect::HierarchyClient> MakeClient(DownstreamSpec spec);
  // Re-derives whether link `id` counts as unsettled after its
  // readiness or exemption may have changed.
  void RecountDownstream(const std::string& id);

  // Raw-watch fault lifecycle: (re-)register the watch (retrying while
  // the server is down), optionally relist and diff afterwards.
  void ArmRawWatch(std::size_t index, bool relist);
  void OnRawWatchBreak(std::size_t index, std::uint64_t epoch);
  void RelistRawWatch(std::size_t index, std::uint64_t epoch);

  Env& env_;
  Mode mode_;
  Options options_;
  LaneId lane_ = kNoLane;
  apiserver::ApiClient api_;
  ControlLoop loop_;
  net::Endpoint endpoint_;
  kubedirect::TombstoneTracker tombstones_;
  FaultPoint handshake_fault_;
  FaultPoint tombstone_fault_;
  ObjectCache scratch_;  // intentionally empty (level-triggered links)

  std::vector<SyncBinding> syncs_;
  std::vector<WatchBinding> watches_;
  std::vector<ObjectCache*> tracked_caches_;
  std::function<void()> on_start_;
  std::function<void()> on_crash_;

  bool have_upstream_spec_ = false;
  UpstreamSpec upstream_spec_;
  bool have_downstream_spec_ = false;
  DownstreamSpec downstream_spec_;

  std::unique_ptr<kubedirect::HierarchyServer> upstream_;
  std::unique_ptr<kubedirect::HierarchyClient> static_downstream_;
  struct DynamicDownstream {
    std::unique_ptr<kubedirect::HierarchyClient> client;
    bool unsettled = false;  // counted in unsettled_downstreams_
  };
  std::map<std::string, DynamicDownstream> dynamic_downstreams_;
  std::map<std::string, bool> downstream_exempt_;
  std::size_t unsettled_downstreams_ = 0;

  bool upstream_started_ = false;
  bool baseline_synced_ = true;
  bool crashed_ = false;
  std::uint64_t session_ = 0;
};

}  // namespace kd::runtime
