#include "controllers/scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "kubedirect/materialize.h"
#include "model/objects.h"

namespace kd::controllers {

using model::ApiObject;
using model::kKindNode;
using model::kKindPod;
using model::kKindReplicaSet;

Scheduler::Scheduler(runtime::Env& env, Mode mode, SchedulerOptions options)
    : env_(env),
      mode_(mode),
      options_(options),
      harness_(env, mode,
               {.name = "scheduler",
                .client_id = "scheduler",
                .address = Addresses::Scheduler(),
                .qps = env.cost.scheduler_qps,
                .burst = env.cost.scheduler_burst}) {
  harness_.SetReconciler(
      [this](const std::string& key) { return Reconcile(key); });

  // Node discovery: capacity bookkeeping + (Kd) one link per Kubelet.
  node_cache_.AddChangeHandler([this](const std::string& key,
                                      const ApiObject* before,
                                      const ApiObject* after) {
    (void)key;
    (void)before;
    if (after == nullptr || after->kind != kKindNode) return;
    NodeState& state = TrackNode(after->name);
    state.cpu_capacity = model::GetCpuMilli(*after);
    // A committed invalid mark newer than our own last Node write means
    // the Kubelet WILL drain when it observes it — either we restarted
    // and lost the cancel state, or one of our cancel writes committed
    // later than we believed. Either way the node must stay out of
    // placement until the mark is cleared (OnKubeletReady ->
    // UncancelNode).
    if (mode_ == Mode::kKd && model::IsNodeInvalid(*after) &&
        !state.cancelled && !state.uncancel_inflight &&
        after->resource_version > state.last_node_write_rv) {
      state.cancelled = true;
      harness_.SetDownstreamExempt(after->name, true);
      // Link already up: no handshake-ready will retrigger the clear.
      if (harness_.DownstreamReady(after->name)) UncancelNode(after->name);
    }
    // Spot-reclamation notice (scenario engine): both modes honour it —
    // stop placing onto the doomed node and drain it within the grace
    // window so replacements land before the provider pulls the machine.
    OnReclaimNotice(after->name, model::GetNodeReclaimAtMs(*after));
    if (mode_ == Mode::kKd && !harness_.crashed()) {
      EnsureKubeletLink(after->name);
    }
  });

  // Incremental allocation tracking driven by every visible pod
  // mutation, regardless of which plane produced it.
  pod_cache_.AddChangeHandler([this](const std::string& key,
                                     const ApiObject* before,
                                     const ApiObject* after) {
    if (before != nullptr && before->kind == kKindPod) {
      const std::string node = model::GetNodeName(*before);
      if (!node.empty()) TrackNode(node, -model::GetCpuMilli(*before));
    }
    if (after != nullptr && after->kind == kKindPod) {
      const std::string node = model::GetNodeName(*after);
      if (!node.empty()) TrackNode(node, model::GetCpuMilli(*after));
      // Unassigned pending pods need scheduling.
      if (model::GetNodeName(*after).empty() &&
          model::GetPodPhase(*after) == model::PodPhase::kPending) {
        harness_.loop().Enqueue(key);
      }
    }
  });

  // The Node informer completing its initial List is the §4.2
  // "baseline synced" signal: the downstream set is fully known.
  harness_.SyncKind(node_cache_, kKindNode,
                    runtime::ControllerHarness::When::kBoth, [this] {
                      harness_.SetBaselineSynced(true);
                      if (mode_ != Mode::kKd) return;
                      for (const ApiObject* node :
                           node_cache_.List(kKindNode)) {
                        EnsureKubeletLink(node->name);
                      }
                      harness_.MaybeStartUpstream();
                    });
  harness_.SyncKind(pod_cache_, kKindPod,
                    runtime::ControllerHarness::When::kK8sOnly);
  // Kd mode: ReplicaSets are cached alongside pods so that incoming
  // pointer-compressed pod messages can be materialized (§3.2); the
  // handshake kind filter keeps them out of the pod state exchange.
  harness_.SyncKind(pod_cache_, kKindReplicaSet,
                    runtime::ControllerHarness::When::kKdOnly);

  runtime::ControllerHarness::UpstreamSpec upstream;
  upstream.cache = &pod_cache_;
  upstream.kind_filter = kKindPod;
  upstream.downstream_first = true;
  upstream.callbacks.on_upsert = [this](const kubedirect::KdMessage& msg) {
    OnPodMessage(msg);
  };
  upstream.callbacks.on_tombstone = [this](const std::string& key) {
    OnTombstone(key);
  };
  upstream.callbacks.on_ack = [this](const std::string& key) {
    // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
    pod_cache_.DropInvalid(key);
  };
  upstream.callbacks.on_upstream_connected = [this] {
    // Hard invalidation supersedes pending soft invalidations: the new
    // upstream just learned our full visible state, so invalid-marked
    // leftovers can go.
    for (const std::string& key : pod_cache_.InvalidKeys()) {
      // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
      pod_cache_.DropInvalid(key);
    }
  };
  harness_.ServeUpstream(std::move(upstream));

  harness_.OnCrash([this] {
    materializing_.clear();
    for (auto& [key, done] : pending_preemptions_) {
      done(UnavailableError("scheduler crashed"));
    }
    pending_preemptions_.clear();
    nodes_.clear();
    by_allocation_.clear();
  });
}

void Scheduler::EnsureKubeletLink(const std::string& node_name) {
  TrackNode(node_name);  // capacity entry exists even before the link
  runtime::ControllerHarness::DownstreamSpec spec;
  spec.peer = Addresses::Kubelet(node_name);
  spec.cache = &pod_cache_;
  spec.kind_filter = kKindPod;
  spec.scope = [node_name](const ApiObject& obj) {
    return model::GetNodeName(obj) == node_name;
  };
  spec.callbacks.on_ready = [this,
                             node_name](const kubedirect::ChangeSet& c) {
    OnKubeletReady(node_name, c);
  };
  spec.callbacks.on_remove = [this, node_name](const std::string& key) {
    OnKubeletRemove(node_name, key);
  };
  spec.callbacks.on_soft_invalidate =
      [this](const kubedirect::KdMessage& delta) {
        // Relay the Kubelet's progress (Running phase, pod IP) further
        // upstream so the whole chain converges on one representation.
        if (harness_.upstream()) harness_.upstream()->SendSoftInvalidate(delta);
      };
  spec.callbacks.on_connect_failed = [this, node_name] {
    NodeState& s = TrackNode(node_name);
    ++s.consecutive_failures;
    if (options_.cancel_after_failures > 0 && !s.cancelled &&
        s.consecutive_failures >= options_.cancel_after_failures) {
      CancelNode(node_name);
    }
  };
  harness_.EnsureDownstream(node_name, std::move(spec));
}

Scheduler::NodeState& Scheduler::TrackNode(const std::string& name,
                                           std::int64_t cpu_delta) {
  auto [it, created] = nodes_.try_emplace(name);
  NodeState& state = it->second;
  if (created) by_allocation_.emplace(0, name);
  if (cpu_delta != 0) {
    auto entry = by_allocation_.extract({state.cpu_allocated, name});
    state.cpu_allocated += cpu_delta;
    entry.value().first = state.cpu_allocated;
    by_allocation_.insert(std::move(entry));
  }
  return state;
}

const Scheduler::NodeState* Scheduler::FindNode(
    const std::string& node_name) const {
  auto it = nodes_.find(node_name);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::int64_t Scheduler::AllocatedCpuOn(const std::string& node_name) const {
  const NodeState* state = FindNode(node_name);
  return state == nullptr ? 0 : state->cpu_allocated;
}

std::int64_t Scheduler::CpuCapacityOf(const std::string& node_name) const {
  const NodeState* state = FindNode(node_name);
  return state == nullptr ? 0 : state->cpu_capacity;
}

bool Scheduler::IsNodeDraining(const std::string& node_name) const {
  const NodeState* state = FindNode(node_name);
  return state != nullptr && state->draining;
}

bool Scheduler::IsNodeCancelled(const std::string& node_name) const {
  const NodeState* state = FindNode(node_name);
  return state != nullptr && state->cancelled;
}

void Scheduler::OnReclaimNotice(const std::string& node_name,
                                std::int64_t reclaim_at_ms) {
  NodeState& state = TrackNode(node_name);
  if (reclaim_at_ms == state.reclaim_at_ms) return;
  state.reclaim_at_ms = reclaim_at_ms;
  if (reclaim_at_ms == 0) {
    // Notice cleared: the machine was replaced (or the reclamation was
    // revoked) — the node takes pods again.
    state.draining = false;
    return;
  }
  if (state.draining) return;  // refreshed deadline on an active drain
  state.draining = true;
  env_.metrics.Count("nodes_draining");
  DrainNode(node_name);
}

void Scheduler::DrainNode(const std::string& node_name) {
  NodeState& state = TrackNode(node_name);
  if (state.cancelled) return;  // pods already assumed terminated
  std::vector<std::string> victims;
  for (const ApiObject* pod : pod_cache_.List(kKindPod)) {
    if (model::GetNodeName(*pod) == node_name) victims.push_back(pod->Key());
  }
  if (mode_ == Mode::kK8s) {
    // Graceful K8s drain: delete each pod through the API; the
    // ReplicaSet controller's informer observes the deletions and
    // replaces the pods elsewhere (the draining node is excluded from
    // PickNode by now).
    for (const std::string& key : victims) {
      const ApiObject* pod = pod_cache_.Get(key);
      if (pod == nullptr || model::IsTerminating(*pod)) continue;
      harness_.api().Delete(kKindPod, pod->name, [](Status) {});
    }
    return;
  }
  // Kd drain: the §4.3 termination path, pod by pod — tombstone toward
  // the owning Kubelet; its Remove signal invalidates upstream, and the
  // ReplicaSet controller replaces the pod with a fresh identity.
  kubedirect::HierarchyClient* client = harness_.downstream(node_name);
  for (const std::string& key : victims) {
    if (harness_.tombstones().Has(key)) continue;  // already condemned
    harness_.tombstones().Add(key, env_.engine.now());
    if (client != nullptr && client->ready()) client->SendTombstone(key);
  }
}

void Scheduler::OnPodMessage(const kubedirect::KdMessage& msg) {
  materializing_.insert(msg.obj_key);
  StatusOr<ApiObject> pod = kubedirect::Materialize(msg, pod_cache_);
  if (!pod.ok()) {
    // Usually a dangling ReplicaSet pointer: the informer has not yet
    // delivered the parent. Retry shortly.
    const kubedirect::KdMessage retry = msg;
    env_.engine.ScheduleAfter(Milliseconds(5), [this, retry] {
      if (!harness_.crashed()) OnPodMessage(retry);
    });
    return;
  }
  // Charge dynamic materialization (§3.2).
  env_.engine.ScheduleAfter(env_.cost.kd_materialize, [this,
                                                       pod = std::move(*pod)]()
                                                          mutable {
    if (harness_.crashed()) return;
    const std::string key = pod.Key();
    materializing_.erase(key);
    const bool condemned = harness_.tombstones().Has(key);
    // kdlint: allow(R5) §3.1 egress: the local cache is populated first, then the message forwards
    pod_cache_.Upsert(std::move(pod));
    if (condemned) {
      // Condemned before it materialized: execute the termination now
      // that the pod exists locally (§4.3).
      harness_.tombstones().Gc(key);
      OnTombstone(key);
    }
  });
}

void Scheduler::OnTombstone(const std::string& pod_key) {
  const ApiObject* pod = pod_cache_.Get(pod_key);
  if (pod == nullptr) {
    if (materializing_.count(pod_key)) {
      // The pod's Upsert is mid-materialization (same-link FIFO keeps
      // upsert before tombstone): record the intent; the apply step
      // executes it.
      harness_.tombstones().Add(pod_key, env_.engine.now());
      return;
    }
    // Unknown pod: its forward message was dropped in flight and can
    // never arrive (FIFO, no retransmission). Termination is
    // idempotent (§4.3) — answer with the removal signal so upstream
    // copies (if any) settle.
    ForwardRemoveUpstream(pod_key);
    return;
  }
  const std::string node = model::GetNodeName(*pod);
  if (node.empty()) {
    // Locally present, not downstream: we own the termination (§4.3).
    // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
    pod_cache_.Remove(pod_key);
    ForwardRemoveUpstream(pod_key);
    return;
  }
  harness_.tombstones().Add(pod_key, env_.engine.now());
  kubedirect::HierarchyClient* client = harness_.downstream(node);
  if (client != nullptr && client->ready()) {
    client->SendTombstone(pod_key);
  }
}

void Scheduler::OnKubeletRemove(const std::string& node_name,
                                const std::string& pod_key) {
  // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
  pod_cache_.Remove(pod_key);  // allocation freed by the change handler
  // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
  pod_cache_.DropInvalid(pod_key);
  harness_.tombstones().Gc(pod_key);
  ForwardRemoveUpstream(pod_key);
  kubedirect::HierarchyClient* client = harness_.downstream(node_name);
  if (client != nullptr) client->SendAck(pod_key);
  ResolvePreemption(pod_key, OkStatus());
}

void Scheduler::OnKubeletReady(const std::string& node_name,
                               const kubedirect::ChangeSet& changes) {
  // The harness already re-evaluated the §4.2 gate for this link.
  NodeState& state = TrackNode(node_name);
  state.consecutive_failures = 0;
  if (state.cancelled) {
    // The node is reachable again: lift the invalid mark (the node
    // stays out of placement until the cleared mark commits).
    UncancelNode(node_name);
  }
  // Objects the Kubelet knows better than us: tell the upstream.
  for (const std::string& key : changes.updated) {
    if (const ApiObject* pod = pod_cache_.Get(key)) {
      if (harness_.upstream()) {
        harness_.upstream()->SendSoftInvalidate(
            kubedirect::FullObjectMessage(*pod));
      }
    }
  }
  // Objects the Kubelet no longer has: invalidate upstream; entries
  // stay hidden until the upstream acks (or the next hard handshake).
  // Any termination intent for them is settled — the pod is gone.
  for (const std::string& key : changes.invalidated) {
    harness_.tombstones().Gc(key);
    ForwardRemoveUpstream(key);
  }
  // Fast-forward termination intents for this node (§4.3).
  harness_.tombstones().ReplicateAll([this,
                                      &node_name](const std::string& key) {
    const ApiObject* pod = pod_cache_.Get(key);
    if (pod != nullptr && model::GetNodeName(*pod) == node_name) {
      harness_.downstream(node_name)->SendTombstone(key);
    }
  });
}

void Scheduler::ForwardRemoveUpstream(const std::string& pod_key) {
  kubedirect::HierarchyServer* upstream = harness_.upstream();
  if (upstream == nullptr || !upstream->SendRemove(pod_key)) {
    // No upstream connected: the next handshake carries the removal
    // implicitly (the pod is hidden from our version map); drop the
    // invalid-marked entry now.
    // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
    pod_cache_.DropInvalid(pod_key);
  }
}

void Scheduler::ResolvePreemption(const std::string& pod_key, Status status) {
  auto it = pending_preemptions_.find(pod_key);
  if (it == pending_preemptions_.end()) return;
  auto done = std::move(it->second);
  pending_preemptions_.erase(it);
  done(status);
}

std::string Scheduler::PickNode(std::int64_t cpu_milli) const {
  // The index is ordered by (allocation, name): the first node that
  // passes the checks is the least-allocated feasible one, ties to the
  // lowest name — the choice a full scan over nodes_ would make.
  for (const auto& [allocated, name] : by_allocation_) {
    const NodeState& state = nodes_.at(name);
    if (state.cancelled || state.draining || state.cpu_capacity <= 0) continue;
    // Kd mode: never bind toward a Kubelet whose link is down or mid
    // handshake — the binding would be invisible to the in-flight
    // version comparison and the pod would strand until the next
    // failure. (K8s mode has no links; bindings go via the API.)
    if (mode_ == Mode::kKd && !harness_.DownstreamReady(name)) continue;
    if (allocated + cpu_milli > state.cpu_capacity) continue;
    return name;
  }
  return "";
}

Duration Scheduler::Reconcile(const std::string& pod_key) {
  const ApiObject* pod = pod_cache_.Get(pod_key);
  if (pod == nullptr) return 0;
  if (!model::GetNodeName(*pod).empty()) return 0;  // already bound
  if (model::IsTerminating(*pod)) return 0;
  if (harness_.tombstones().Has(pod_key)) return 0;

  env_.metrics.MarkStart("scheduler", env_.engine.now());
  // Simulated time charges a scan of every known node (the Fig. 11
  // M-scalability effect), whatever the host-side index visits.
  const Duration scan_cost =
      env_.cost.scheduler_per_node_scan *
      static_cast<Duration>(std::max<std::size_t>(nodes_.size(), 1));
  const std::string node = PickNode(model::GetCpuMilli(*pod));
  const Duration cost = scan_cost + env_.cost.scheduler_per_pod;
  if (node.empty()) {
    // No feasible node: retry under the assumption capacity frees up.
    harness_.loop().EnqueueAfter(pod_key, Milliseconds(100));
    return cost;
  }

  if (mode_ == Mode::kKd) {
    ApiObject bound = *pod;
    model::SetNodeName(bound, node);
    const std::string rs_key =
        ApiObject::MakeKey(kKindReplicaSet, model::GetOwnerName(bound));
    // kdlint: allow(R5) §3.1 egress: the local cache is populated first, then the message forwards
    pod_cache_.Upsert(bound);  // egress fills the local cache first
    kubedirect::HierarchyClient* client = harness_.downstream(node);
    if (client != nullptr && client->ready()) {
      // Forward the pod + binding to the Kubelet (pointer-compressed,
      // or full-object under the Fig. 14 ablation).
      kubedirect::KdMessage msg;
      if (env_.cost.kd_naive_full_objects) {
        msg = kubedirect::FullObjectMessage(bound);
      } else {
        msg = kubedirect::PodCreateMessage(bound, rs_key);
        msg.attrs.emplace("spec.nodeName", kubedirect::KdValue::Literal(node));
      }
      client->SendUpsert(msg);
    }
    // Soft-invalidate the upstream with the binding (§4.2).
    if (harness_.upstream()) {
      kubedirect::KdMessage delta;
      delta.obj_key = pod_key;
      delta.attrs.emplace("spec.nodeName", kubedirect::KdValue::Literal(node));
      harness_.upstream()->SendSoftInvalidate(delta);
    }
    env_.metrics.MarkStop("scheduler", env_.engine.now() + cost);
    return cost;
  }

  // K8s mode: bind through the API server.
  ApiObject bound = *pod;
  model::SetNodeName(bound, node);
  // kdlint: allow(R5) write-through of the API response; waiting for the watch echo would double round-trip latency
  pod_cache_.Upsert(bound);  // optimistic local bind (allocation tracked)
  harness_.api().Update(bound, [this, pod_key](StatusOr<ApiObject> result) {
    env_.metrics.MarkStop("scheduler", env_.engine.now());
    if (!result.ok() && !harness_.crashed()) {
      // Conflict: the informer will refresh the pod; retry.
      harness_.loop().EnqueueAfter(pod_key, Milliseconds(5));
    }
  });
  return cost;
}

void Scheduler::Preempt(const std::string& pod_key,
                        std::function<void(Status)> done) {
  if (mode_ == Mode::kK8s) {
    const ApiObject* pod = pod_cache_.Get(pod_key);
    if (pod == nullptr) {
      done(NotFoundError(pod_key));
      return;
    }
    harness_.api().Delete(kKindPod, pod->name,
                          [done = std::move(done)](Status s) { done(s); });
    return;
  }
  const ApiObject* pod = pod_cache_.Get(pod_key);
  if (pod == nullptr) {
    done(NotFoundError(pod_key));
    return;
  }
  const std::string node = model::GetNodeName(*pod);
  if (node.empty()) {
    // Not downstream: synchronous by construction.
    // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
    pod_cache_.Remove(pod_key);
    ForwardRemoveUpstream(pod_key);
    done(OkStatus());
    return;
  }
  kubedirect::HierarchyClient* client = harness_.downstream(node);
  if (client == nullptr || !client->ready()) {
    done(UnavailableError("kubelet link down for " + node));
    return;
  }
  harness_.tombstones().Add(pod_key, env_.engine.now());
  pending_preemptions_[pod_key] = std::move(done);
  // Synchronous termination: immediate flush; the Kubelet's Remove
  // signal resolves the preemption (§4.3, §6.3).
  client->SendTombstoneNow(pod_key);
}

void Scheduler::CancelNode(const std::string& node_name) {
  NodeState& state = TrackNode(node_name);
  if (state.cancelled) return;
  state.cancelled = true;
  // An unreachable node no longer blocks the downstream-first gate.
  harness_.SetDownstreamExempt(node_name, true);
  // Mark the Node invalid through the API server: the Kubelet drains
  // all KubeDirect pods when it observes the mark (§4.3).
  if (const ApiObject* node =
          node_cache_.Get(ApiObject::MakeKey(kKindNode, node_name))) {
    ApiObject updated = *node;
    model::SetNodeInvalid(updated, true);
    harness_.api().Update(std::move(updated),
                          [this, node_name](StatusOr<ApiObject> result) {
                            if (harness_.crashed() || !result.ok()) return;
                            TrackNode(node_name).last_node_write_rv =
                                result->resource_version;
                          });
  }
  // Assume the node's pods irreversibly terminated; invalidate upstream.
  std::vector<std::string> doomed;
  for (const ApiObject* pod : pod_cache_.List(kKindPod)) {
    if (model::GetNodeName(*pod) == node_name) doomed.push_back(pod->Key());
  }
  for (const std::string& key : doomed) {
    // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
    pod_cache_.Remove(key);
    harness_.tombstones().Gc(key);
    ForwardRemoveUpstream(key);
    ResolvePreemption(key, OkStatus());
  }
  env_.metrics.Count("nodes_cancelled");
  harness_.MaybeStartUpstream();
}

void Scheduler::UncancelNode(const std::string& node_name) {
  NodeState& state = TrackNode(node_name);
  if (!state.cancelled || state.uncancel_inflight) return;
  const ApiObject* node =
      node_cache_.Get(ApiObject::MakeKey(kKindNode, node_name));
  // No informer copy yet (e.g. right after our own restart): the next
  // handshake-ready retriggers us once the Node informer catches up.
  if (node == nullptr) return;
  // Always WRITE the clear, even when the informer's copy already reads
  // valid: our cancel write may still be in flight (an API outage keeps
  // it retrying for tens of seconds) and would otherwise commit the
  // mark AFTER we resumed placing — a zombie write the Kubelet then
  // honours by draining every fresh pod. Writing unconditionally makes
  // optimistic concurrency arbitrate: whichever of the two writes lands
  // second fails with Conflict and dies (the clear retries below; the
  // zombie cancel is never retried on Conflict).
  state.uncancel_inflight = true;
  ApiObject updated = *node;
  model::SetNodeInvalid(updated, false);
  harness_.api().Update(
      std::move(updated),
      [this, node_name](StatusOr<ApiObject> result) {
        if (harness_.crashed()) return;
        NodeState& s = TrackNode(node_name);
        s.uncancel_inflight = false;
        if (!s.cancelled) return;  // re-cancelled while in flight
        if (result.ok()) {
          s.last_node_write_rv = result->resource_version;
          s.cancelled = false;
          harness_.SetDownstreamExempt(node_name, false);
          // Unschedulable pods requeue themselves (Reconcile's 100ms
          // retry) — the freed node gets picked up there.
          return;
        }
        // Conflict (stale informer copy) or API-outage give-up: retry
        // off the refreshed informer copy after a backoff. The node
        // simply stays cancelled in the meantime — safe, just slow.
        env_.engine.ScheduleAfter(
            env_.cost.kd_reconnect_backoff, [this, node_name] {
              if (harness_.crashed()) return;
              if (!harness_.DownstreamReady(node_name)) return;
              UncancelNode(node_name);
            });
      });
}

}  // namespace kd::controllers
