// The ReplicaSet controller — step ③ of the critical path (Fig. 1),
// and the head of the Pod chain in the hierarchical cache (§4.2).
//
// Upscaling: creates Pods from the ReplicaSet template to match the
// desired scale.
//   K8s mode: one (rate-limited, ~17 KB) API Create per Pod, with
//             client-go-style "expectations" to avoid double-creates
//             while the informer catches up.
//   Kd  mode: inserts the Pod into its local ephemeral cache (the
//             egress populates the cache before sending, §3.1) and
//             forwards a ~100 B pointer-compressed message downstream.
//
// Downscaling (§4.3): picks victims and — in Kd mode — registers
// Tombstones that are replicated down the chain until the termination
// lands; victims are excluded from the active count to avoid
// thrashing. In K8s mode it issues API Deletes.
//
// Invalidation handling: when the downstream (Scheduler) loses pods
// (crash, reset handshake, eviction), this controller observes the
// removal, drops the pod, and its level-triggered reconcile recreates
// the missing replicas — the recovery path of Anomaly #2.
#pragma once

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lane.h"
#include "controllers/types.h"
#include "runtime/harness.h"

namespace kd::controllers {

class KD_LANE_OWNED(replicaset) ReplicaSetController {
 public:
  ReplicaSetController(runtime::Env& env, Mode mode);

  void Start() { harness_.Start(); }
  void Crash() { harness_.Crash(); }
  void Restart() { harness_.Restart(); }

  // Fault-injection seams (crash-point sweep).
  runtime::ControllerHarness& harness() { return harness_; }

  bool link_ready() const { return harness_.link_ready(); }

  // Visible (non-tombstoned) pods owned by `rs_name` in this
  // controller's view (test observability).
  std::size_t OwnedPodCount(const std::string& rs_name) const;
  const runtime::ObjectCache& pod_cache() const { return pod_cache_; }
  std::size_t tombstone_count() const { return harness_.tombstones().size(); }

 private:
  Duration Reconcile(const std::string& rs_name);
  void CreatePods(const model::ApiObject& rs, std::int64_t count);
  void DeletePods(const model::ApiObject& rs,
                  std::vector<const model::ApiObject*> victims);
  void OnScaleMessage(const kubedirect::KdMessage& msg);
  void OnDownstreamRemove(const std::string& pod_key);
  void OnDownstreamReady(const kubedirect::ChangeSet& changes);
  void GcTombstone(const std::string& pod_key);
  void EnqueueOwnerOf(const std::string& pod_key);
  std::string NextPodName(const std::string& rs_name);

  runtime::Env& env_;
  Mode mode_;
  runtime::ControllerHarness harness_;
  runtime::ObjectCache rs_cache_;   // ReplicaSets (informer)
  runtime::ObjectCache pod_cache_;  // K8s: pod informer; Kd: ephemeral
  MetricsRecorder::Span span_ = env_.metrics.ResolveSpan("replicaset");
  MetricsRecorder::Counter pods_created_ =
      env_.metrics.ResolveCounter("pods_created");
  MetricsRecorder::Counter pods_deleted_ =
      env_.metrics.ResolveCounter("pods_deleted");

  // The per-RS maps below are looked up by key and never iterated, so
  // they hash (kdlint R2 concerns iteration order only).
  // Kd: desired replicas per RS key, fed by the Deployment controller.
  std::unordered_map<std::string, std::int64_t> desired_;

  // Owner index: RS name -> keys of visible owned pods, maintained in
  // lockstep with pod_cache_ by its change handler. Reconcile reads
  // this instead of filtering a full List(kKindPod) — the full scan
  // made every reconcile O(total pods) and dominated large-M runs.
  // Sorted set keeps iteration in key order, matching what the List
  // filter produced. A stale key whose pod has since vanished without
  // a handler firing (cache Clear) is skipped via Get() == nullptr.
  std::unordered_map<std::string, std::set<std::string>> owned_pods_;
  // RS name -> count of live owned pods: visible, not Terminating, not
  // tombstoned. Maintained at the three predicate transition points
  // (cache change handler, tombstone add, tombstone gc) so the common
  // reconcile reads a counter instead of re-filtering the owned set —
  // scaling one RS to N pods is then O(N) reconciles, not O(N^2) scans.
  std::unordered_map<std::string, std::int64_t> live_owned_;

  // K8s: in-flight creates/deletes per RS key (client-go expectations).
  std::unordered_map<std::string, std::int64_t> pending_creates_;
  std::unordered_map<std::string, std::int64_t> pending_deletes_;

  // Pod naming: the harness session epoch + this counter keeps names
  // unique across crash-restarts without persisted state.
  std::uint64_t pod_counter_ = 0;
};

}  // namespace kd::controllers
