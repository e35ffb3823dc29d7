// The Scheduler — step ④ of the critical path (Fig. 1).
//
// Assigns Pending pods to nodes with a least-allocated-CPU policy. Its
// simulated cost grows linearly with the node count (CostModel's
// scheduler_per_node_scan per known node — the Fig. 11 M-scalability
// effect); its host cost does not: an index ordered by (allocation,
// name) hands PickNode the least-allocated candidates first, so a pick
// is O(log M) whenever the emptiest node is feasible. Sits mid-chain in
// the hierarchical cache: server towards the ReplicaSet controller, one
// client per Kubelet (the harness's dynamic downstream fan-out).
//
// Termination duties (§4.3):
//   - forwards Tombstones towards the owning Kubelet (async downscale);
//   - synchronous preemption: replicates the tombstone with an
//     immediate flush and *blocks the dependent action* until the
//     Kubelet's invalidation signal returns;
//   - cancellation: when a Kubelet is unreachable, marks its Node
//     invalid through the API server, assumes its pods terminated, and
//     invalidates them upstream. Cancelled nodes are exempt from the
//     harness's §4.2 downstream-first gate.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/lane.h"
#include "controllers/types.h"
#include "runtime/harness.h"

namespace kd::controllers {

struct SchedulerOptions {
  // Consecutive failed connect attempts to one Kubelet before the
  // Scheduler cancels the node (§4.3 "Cancellation"). 0 disables.
  int cancel_after_failures = 10;
};

class KD_LANE_OWNED(scheduler) Scheduler {
 public:
  Scheduler(runtime::Env& env, Mode mode, SchedulerOptions options = {});

  void Start() { harness_.Start(); }
  void Crash() { harness_.Crash(); }
  void Restart() { harness_.Restart(); }

  // Fault-injection seams (crash-point sweep).
  runtime::ControllerHarness& harness() { return harness_; }

  // Synchronous termination (§4.3): terminates `pod_key` and invokes
  // `done` only after the owning Kubelet's invalidation signal arrives
  // (Kd mode) or the API delete completes (K8s mode).
  void Preempt(const std::string& pod_key, std::function<void(Status)> done);

  // Cancels an unreachable node explicitly (also triggered
  // automatically after repeated connect failures).
  void CancelNode(const std::string& node_name);

  // Where a pod requesting `cpu_milli` would be placed now: the
  // least-allocated node that is not cancelled or draining, has a ready
  // Kubelet link (Kd mode) and fits the pod; ties go to the lowest node
  // name. "" if no node fits.
  std::string PickNode(std::int64_t cpu_milli) const;

  // Observability (unknown nodes read as 0 / false).
  std::int64_t AllocatedCpuOn(const std::string& node_name) const;
  std::int64_t CpuCapacityOf(const std::string& node_name) const;
  // True while the node carries a reclaim notice: excluded from
  // placement, pods draining toward other nodes (scenario engine).
  bool IsNodeDraining(const std::string& node_name) const;
  // True while the Scheduler has cancelled the node (§4.3).
  bool IsNodeCancelled(const std::string& node_name) const;
  const runtime::ObjectCache& pod_cache() const { return pod_cache_; }
  bool KubeletLinkReady(const std::string& node_name) const {
    return harness_.DownstreamReady(node_name);
  }
  std::size_t tombstone_count() const { return harness_.tombstones().size(); }

 private:
  struct NodeState {
    std::int64_t cpu_capacity = 0;
    std::int64_t cpu_allocated = 0;
    int consecutive_failures = 0;
    bool cancelled = false;
    // A reclaim notice is pending (spot reclamation, §scenario): the
    // node takes no new pods and its current pods are drained toward
    // the rest of the cluster within the grace window.
    bool draining = false;
    std::int64_t reclaim_at_ms = 0;  // last observed notice (0 = none)
    // An invalid=false Node write is in flight (un-cancel commit gate).
    bool uncancel_inflight = false;
    // Highest resourceVersion among our own committed Node writes —
    // lets the informer handler tell our own write echoes from invalid
    // marks we did not (knowingly) put there.
    std::uint64_t last_node_write_rv = 0;
  };

  // The only way into nodes_: creates a node's entry (and its index
  // key) on first use and applies `cpu_delta` to its allocation,
  // keeping by_allocation_ in step.
  NodeState& TrackNode(const std::string& name, std::int64_t cpu_delta = 0);
  const NodeState* FindNode(const std::string& node_name) const;

  Duration Reconcile(const std::string& pod_key);
  // Reverses CancelNode once the node is reachable again. The node
  // resumes taking pods only after the cleared invalid mark COMMITS to
  // the API server: the mark is committed state, and a Kubelet that
  // observes it — however late (e.g. a watch relist after an API
  // outage) — drains every pod on the node (§4.3). Placing before the
  // commit hands that drain fresh victims.
  void UncancelNode(const std::string& node_name);
  // Reacts to a reclaim-notice change on a Node object: marks the node
  // draining and terminates its pods gracefully (Kd: tombstone path;
  // K8s: API deletes) so the ReplicaSet controller replaces them on
  // healthy nodes before the provider pulls the machine.
  void OnReclaimNotice(const std::string& node_name,
                       std::int64_t reclaim_at_ms);
  void DrainNode(const std::string& node_name);
  void EnsureKubeletLink(const std::string& node_name);
  void OnPodMessage(const kubedirect::KdMessage& msg);
  void OnTombstone(const std::string& pod_key);
  void OnKubeletRemove(const std::string& node_name,
                       const std::string& pod_key);
  void OnKubeletReady(const std::string& node_name,
                      const kubedirect::ChangeSet& changes);
  void ForwardRemoveUpstream(const std::string& pod_key);
  void ResolvePreemption(const std::string& pod_key, Status status);

  runtime::Env& env_;
  Mode mode_;
  SchedulerOptions options_;
  runtime::ControllerHarness harness_;
  runtime::ObjectCache node_cache_;  // Nodes (informer)
  runtime::ObjectCache pod_cache_;   // K8s: informer; Kd: ephemeral

  // Per-node scheduling state (capacity, allocation, cancellation).
  // The per-Kubelet HierarchyClients live in the harness fan-out.
  std::map<std::string, NodeState> nodes_;
  // One (cpu_allocated, name) key per entry of nodes_, maintained by
  // TrackNode: PickNode walks it from the least-allocated end. Keyed
  // by value, not by NodeState* (kdlint R3).
  std::set<std::pair<std::int64_t, std::string>> by_allocation_;
  // Pods whose Upsert is between arrival and cache insertion (the
  // kd_materialize window); tombstones for them are deferred, not
  // answered as unknown.
  std::set<std::string> materializing_;
  std::map<std::string, std::function<void(Status)>> pending_preemptions_;
};

}  // namespace kd::controllers
