#include "controllers/replicaset_controller.h"

#include <algorithm>

#include "common/strings.h"
#include "model/objects.h"

namespace kd::controllers {

using model::ApiObject;
using model::kKindPod;
using model::kKindReplicaSet;

ReplicaSetController::ReplicaSetController(runtime::Env& env, Mode mode)
    : env_(env),
      mode_(mode),
      harness_(env, mode,
               {.name = "replicaset",
                .client_id = "replicaset-controller",
                .address = Addresses::ReplicaSetController(),
                .qps = env.cost.controller_qps,
                .burst = env.cost.controller_burst}) {
  harness_.SetReconciler(
      [this](const std::string& key) { return Reconcile(key); });
  rs_cache_.AddChangeHandler([this](const std::string& key,
                                    const ApiObject* before,
                                    const ApiObject* after) {
    (void)before;
    if (after != nullptr) harness_.loop().Enqueue(key);
  });
  // Pod events re-trigger the owning ReplicaSet (replacement logic and
  // expectation accounting).
  pod_cache_.AddChangeHandler([this](const std::string& key,
                                     const ApiObject* before,
                                     const ApiObject* after) {
    const ApiObject* obj = after != nullptr ? after : before;
    if (obj == nullptr || obj->kind != kKindPod) return;
    // Keep the owner index and live count in lockstep with cache
    // visibility. The handler fires on every visible mutation
    // (including invalidation, after == nullptr), so index membership
    // == List visibility. live = visible && !Terminating &&
    // !tombstoned; the tombstone predicate transitions are accounted
    // at their own call sites (DeletePods / GcTombstone).
    if (before != nullptr) {
      const std::string& prev = model::GetOwnerName(*before);
      if (!prev.empty()) {
        auto it = owned_pods_.find(prev);
        if (it != owned_pods_.end()) {
          it->second.erase(key);
          if (it->second.empty()) owned_pods_.erase(it);
        }
        if (!model::IsTerminating(*before) && !harness_.tombstones().Has(key)) {
          --live_owned_[prev];
        }
      }
    }
    const std::string& owner = model::GetOwnerName(*obj);
    if (owner.empty()) return;
    if (after != nullptr) {
      owned_pods_[owner].insert(key);
      if (!model::IsTerminating(*after) && !harness_.tombstones().Has(key)) {
        ++live_owned_[owner];
      }
    }
    const std::string rs_key = ApiObject::MakeKey(kKindReplicaSet, owner);
    if (mode_ == Mode::kK8s) {
      // Expectations: an observed add/delete settles one in-flight op.
      if (before == nullptr && after != nullptr) {
        auto it = pending_creates_.find(rs_key);
        if (it != pending_creates_.end() && it->second > 0) --it->second;
      } else if (before != nullptr && after == nullptr) {
        auto it = pending_deletes_.find(rs_key);
        if (it != pending_deletes_.end() && it->second > 0) --it->second;
      }
    }
    harness_.loop().Enqueue(rs_key);
  });

  harness_.SyncKind(rs_cache_, kKindReplicaSet);
  harness_.SyncKind(pod_cache_, kKindPod,
                    runtime::ControllerHarness::When::kK8sOnly);
  harness_.TrackCache(pod_cache_);  // Kd mode: ephemeral, still crash-cleared

  runtime::ControllerHarness::UpstreamSpec upstream;
  upstream.kind_filter = "__none__";
  upstream.callbacks.on_upsert = [this](const kubedirect::KdMessage& msg) {
    OnScaleMessage(msg);
  };
  harness_.ServeUpstream(std::move(upstream));

  runtime::ControllerHarness::DownstreamSpec link;
  link.peer = Addresses::Scheduler();
  link.cache = &pod_cache_;
  link.kind_filter = kKindPod;
  link.callbacks.on_ready = [this](const kubedirect::ChangeSet& changes) {
    OnDownstreamReady(changes);
  };
  link.callbacks.on_remove = [this](const std::string& pod_key) {
    OnDownstreamRemove(pod_key);
  };
  link.callbacks.on_soft_invalidate = [](const kubedirect::KdMessage& delta) {
    // Downstream progress (scheduling, readiness) already merged into
    // pod_cache_ by the client; the RS controller is the head of the
    // chain, so there is no one left to relay to.
    (void)delta;
  };
  harness_.ConnectDownstream(std::move(link));

  harness_.OnStart([this] { pod_counter_ = 0; });
  harness_.OnCrash([this] {
    desired_.clear();
    pending_creates_.clear();
    pending_deletes_.clear();
    // Cache Clear() fires no handlers: reset the indexes too.
    owned_pods_.clear();
    live_owned_.clear();
  });
}

void ReplicaSetController::OnScaleMessage(const kubedirect::KdMessage& msg) {
  auto it = msg.attrs.find("spec.replicas");
  if (it == msg.attrs.end() || it->second.is_pointer()) return;
  desired_[msg.obj_key] = it->second.literal().as_int();
  harness_.loop().Enqueue(msg.obj_key);
}

void ReplicaSetController::EnqueueOwnerOf(const std::string& pod_key) {
  if (const ApiObject* pod = pod_cache_.Get(pod_key)) {
    harness_.loop().Enqueue(
        ApiObject::MakeKey(kKindReplicaSet, model::GetOwnerName(*pod)));
  }
}

void ReplicaSetController::OnDownstreamRemove(const std::string& pod_key) {
  // The downstream is the source of truth: the pod is gone (evicted,
  // preempted, or terminated via tombstone). Drop it, settle any
  // tombstone, acknowledge, and reconcile the owner for replacement.
  EnqueueOwnerOf(pod_key);
  // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
  pod_cache_.Remove(pod_key);
  // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
  pod_cache_.DropInvalid(pod_key);
  GcTombstone(pod_key);
  if (kubedirect::HierarchyClient* downstream = harness_.downstream()) {
    downstream->SendAck(pod_key);
  }
}

void ReplicaSetController::GcTombstone(const std::string& pod_key) {
  if (!harness_.tombstones().Has(pod_key)) return;
  harness_.tombstones().Gc(pod_key);
  // If the pod were somehow still live in the cache it would re-enter
  // the live count here. Defensive: on every current path the pod is
  // already removed or invalid-hidden by the time its tombstone is
  // collected, so this is a no-op.
  const ApiObject* pod = pod_cache_.Get(pod_key);
  if (pod != nullptr && !model::IsTerminating(*pod)) {
    const std::string& owner = model::GetOwnerName(*pod);
    if (!owner.empty()) ++live_owned_[owner];
  }
}

void ReplicaSetController::OnDownstreamReady(
    const kubedirect::ChangeSet& changes) {
  // Hard invalidation completed. Invalidated pods are hidden; as the
  // head of the pod chain there is no further upstream to notify, so
  // drop them outright and let reconcile recreate the deficit.
  for (const std::string& key : changes.invalidated) {
    // A tombstoned pod that the downstream no longer holds is exactly
    // the "locally present but not downstream" GC condition of §4.3.
    GcTombstone(key);
    // kdlint: allow(R5) §4.2/§4.3 invalidation settling: hierarchy-protocol bookkeeping, not an object write
    pod_cache_.DropInvalid(key);
  }
  for (const std::string& key : changes.updated) EnqueueOwnerOf(key);
  // Fast-forward termination intents that survived the disconnect.
  harness_.tombstones().ReplicateAll([this](const std::string& key) {
    harness_.downstream()->SendTombstone(key);
  });
  // Re-reconcile everything we manage (cheap: level-triggered dedup).
  for (const ApiObject* rs : rs_cache_.List(kKindReplicaSet)) {
    harness_.loop().Enqueue(rs->Key());
  }
}

std::string ReplicaSetController::NextPodName(const std::string& rs_name) {
  return StrFormat("%s-s%llu-p%llu", rs_name.c_str(),
                   static_cast<unsigned long long>(harness_.session()),
                   static_cast<unsigned long long>(pod_counter_++));
}

Duration ReplicaSetController::Reconcile(const std::string& rs_key) {
  const ApiObject* rs = rs_cache_.Get(rs_key);
  if (rs == nullptr) return 0;

  std::int64_t desired;
  if (mode_ == Mode::kKd) {
    auto it = desired_.find(rs_key);
    if (it == desired_.end()) return 0;
    desired = it->second;
  } else {
    desired = model::GetReplicas(*rs);
  }

  // Live pods owned by this RS: visible, not Terminating, and not
  // tombstoned (awaiting termination — they neither count as capacity
  // nor get replaced, §4.3's anti-thrashing rule). The count is
  // maintained incrementally, so the common reconcile is O(1); only an
  // actual downscale walks the owned set to pick victims.
  std::int64_t effective = 0;
  if (auto it = live_owned_.find(rs->name); it != live_owned_.end()) {
    effective = it->second;
  }
  if (mode_ == Mode::kK8s) {
    effective += pending_creates_[rs_key];
    effective -= pending_deletes_[rs_key];
  }

  span_.MarkStart(env_.engine.now());
  if (effective < desired) {
    CreatePods(*rs, desired - effective);
  } else if (effective > desired) {
    // Materialize the live set the counter describes (key order, same
    // as the old full-List filter produced).
    std::vector<const ApiObject*> owned;
    if (auto idx = owned_pods_.find(rs->name); idx != owned_pods_.end()) {
      owned.reserve(idx->second.size());
      for (const std::string& pod_key : idx->second) {
        const ApiObject* pod = pod_cache_.Get(pod_key);
        if (pod == nullptr) continue;  // stale after a handler-less Clear
        if (harness_.tombstones().Has(pod_key)) continue;
        if (model::IsTerminating(*pod)) continue;
        owned.push_back(pod);
      }
    }
    // Newest-first victim selection (standard ReplicaSet behaviour).
    std::sort(owned.begin(), owned.end(),
              [](const ApiObject* a, const ApiObject* b) {
                return a->name > b->name;
              });
    owned.resize(std::min(static_cast<std::size_t>(effective - desired),
                          owned.size()));
    DeletePods(*rs, std::move(owned));
  }
  span_.MarkStop(env_.engine.now());
  return 0;
}

void ReplicaSetController::CreatePods(const ApiObject& rs,
                                      std::int64_t count) {
  const std::string rs_key = rs.Key();
  if (mode_ == Mode::kKd && !harness_.link_ready()) {
    // The forward link is down or mid-handshake. Creating now would
    // produce pods invisible to the in-flight version comparison
    // (phantoms the handshake can never invalidate), so hold off:
    // on_ready re-enqueues every ReplicaSet and creation resumes.
    return;
  }
  for (std::int64_t i = 0; i < count; ++i) {
    ApiObject pod = model::MakePodFromTemplate(NextPodName(rs.name), rs);
    pods_created_.Add();
    if (mode_ == Mode::kKd) {
      // Egress: populate the local cache first (§3.1), then forward.
      // Dynamic materialization ships the pointer-compressed message;
      // the Fig. 14 ablation ships the full object as literals.
      kubedirect::KdMessage msg =
          env_.cost.kd_naive_full_objects
              ? kubedirect::FullObjectMessage(pod)
              : kubedirect::PodCreateMessage(pod, rs_key);
      // kdlint: allow(R5) §3.1 egress: the local cache is populated first, then the message forwards
      pod_cache_.Upsert(std::move(pod));
      harness_.downstream()->SendUpsert(std::move(msg));
      continue;
    }
    ++pending_creates_[rs_key];
    harness_.api().Create(
        std::move(pod), [this, rs_key](StatusOr<ApiObject> result) {
          if (!result.ok()) {
            // Failed create: release the expectation and re-reconcile.
            auto it = pending_creates_.find(rs_key);
            if (it != pending_creates_.end() && it->second > 0) --it->second;
            if (!harness_.crashed()) {
              harness_.loop().EnqueueAfter(rs_key, Milliseconds(5));
            }
          }
          // Success settles through the pod informer (Added event).
        });
  }
}

void ReplicaSetController::DeletePods(
    const ApiObject& rs, std::vector<const ApiObject*> victims) {
  const std::string rs_key = rs.Key();
  for (const ApiObject* victim : victims) {
    const std::string pod_key = victim->Key();
    pods_deleted_.Add();
    if (mode_ == Mode::kKd) {
      // Asynchronous termination via tombstone replication (§4.3). The
      // victim leaves the live count the moment the intent is recorded
      // (victims are selected from the live set, so the guard only
      // protects against double-tombstoning).
      if (!harness_.tombstones().Has(pod_key)) {
        harness_.tombstones().Add(pod_key);
        --live_owned_[rs.name];
      }
      if (harness_.link_ready()) {
        harness_.downstream()->SendTombstone(pod_key);
      }
      continue;
    }
    ++pending_deletes_[rs_key];
    harness_.api().Delete(
        kKindPod, victim->name, [this, rs_key](Status status) {
          if (!status.ok()) {
            auto it = pending_deletes_.find(rs_key);
            if (it != pending_deletes_.end() && it->second > 0) {
              --it->second;
            }
            if (!harness_.crashed()) {
              harness_.loop().EnqueueAfter(rs_key, Milliseconds(5));
            }
          }
        });
  }
}

std::size_t ReplicaSetController::OwnedPodCount(
    const std::string& rs_name) const {
  std::size_t n = 0;
  if (auto idx = owned_pods_.find(rs_name); idx != owned_pods_.end()) {
    for (const std::string& pod_key : idx->second) {
      if (pod_cache_.Get(pod_key) != nullptr &&
          !harness_.tombstones().Has(pod_key)) {
        ++n;
      }
    }
  }
  return n;
}

}  // namespace kd::controllers
