#include "controllers/kubelet.h"

#include "common/strings.h"
#include "kubedirect/materialize.h"
#include "model/objects.h"

namespace kd::controllers {

using model::ApiObject;
using model::kKindNode;
using model::kKindPod;
using model::kKindReplicaSet;

Kubelet::Kubelet(runtime::Env& env, Mode mode, std::string node_name,
                 SandboxParams sandbox)
    : env_(env),
      mode_(mode),
      node_name_(std::move(node_name)),
      sandbox_(sandbox),
      harness_(env, mode,
               {.name = "kubelet-" + node_name_,
                .client_id = "kubelet-" + node_name_,
                .address = Addresses::Kubelet(node_name_),
                .qps = env.cost.kubelet_qps,
                .burst = env.cost.kubelet_burst,
                .api_metrics = false}) {
  // This node's API objects. Kd: the Scheduler marks our Node invalid
  // when it cannot reach us (§4.3 "Cancellation"). K8s: a pod bound
  // here starts; a deleted one stops (the API server already removed
  // the object).
  watch_cache_.AddChangeHandler([this](const std::string& key,
                                       const ApiObject* before,
                                       const ApiObject* after) {
    (void)before;
    if (mode_ == Mode::kKd) {
      if (after != nullptr && model::IsNodeInvalid(*after)) DrainAllKdPods();
      return;
    }
    if (after != nullptr) {
      OnPodBound(*after);
      return;
    }
    // kdlint: allow(R5) kubelet-local pod table: the sandboxes, fed by the bound-pod watch (K8s) / ingress (Kd), not an API mirror
    cache_.Remove(key);
    starting_.erase(key);
    published_.erase(key);
  });

  // Kd mode: ReplicaSet templates for dynamic materialization.
  harness_.SyncKind(cache_, kKindReplicaSet,
                    runtime::ControllerHarness::When::kKdOnly);
  const std::string me = node_name_;
  harness_.WatchFiltered(
      watch_cache_, kKindNode,
      [me](const ApiObject& node) { return node.name == me; },
      runtime::ControllerHarness::When::kKdOnly);
  harness_.WatchFiltered(
      watch_cache_, kKindPod,
      [me](const ApiObject& pod) { return model::GetNodeName(pod) == me; },
      runtime::ControllerHarness::When::kK8sOnly);

  runtime::ControllerHarness::UpstreamSpec upstream;
  upstream.cache = &cache_;
  upstream.kind_filter = kKindPod;
  upstream.callbacks.on_upsert = [this](const kubedirect::KdMessage& msg) {
    OnPodMessage(msg);
  };
  upstream.callbacks.on_tombstone = [this](const std::string& key) {
    Terminate(key, /*notify_upstream=*/true);
  };
  // Do not serve handshakes until the crash-recovery adopt below has
  // completed: the version map we answer with must include the
  // published pods that outlived a restart, or the Scheduler treats
  // them as gone and tells the ReplicaSet controller to replace pods
  // that are still running (permanent over-provisioning once the
  // adopt finally lands).
  upstream.downstream_first = true;
  harness_.ServeUpstream(std::move(upstream));

  harness_.OnStart([this] {
    if (mode_ == Mode::kKd) {
      harness_.api().Get(kKindNode, node_name_,
                         [this](StatusOr<ApiObject> result) {
                           if (result.ok() && !harness_.crashed()) {
                             // kdlint: allow(R5) field-selector watch cache: its owner seeds it, the server has no filtered List
                             watch_cache_.Upsert(std::move(*result));
                           }
                         });
    }
    AdoptBoundPods();
  });

  harness_.OnCrash([this] {
    sandbox_queue_.clear();
    starting_.clear();
    start_times_.clear();
    active_starts_ = 0;
    published_.clear();
    materializing_.clear();
    condemned_.clear();
    ep_stream_.reset();
    ep_stream_connecting_ = false;
    ep_announced_.clear();
  });
}

void Kubelet::AdoptBoundPods() {
  // Crash recovery: containers of *published* pods outlive a Kubelet
  // restart (they are real processes); re-adopt them from the API
  // server. Unpublished pods died with us (the TLA+ spec's
  // RunningPods' = APIPods). Kd: only then open the upstream server —
  // a handshake answered before this completes would miss the
  // survivors. K8s: the watch only carries what changes after it is
  // armed, so pods bound earlier arrive through this list.
  const std::uint64_t session = harness_.session();
  harness_.api().List(
      kKindPod,
      [this, session](StatusOr<std::vector<ApiObject>> result,
                      std::uint64_t) {
        if (harness_.crashed() || harness_.session() != session) return;
        if (!result.ok()) {
          // API outage outlasted the client's retry budget: the adopt
          // is a correctness gate, so keep trying for as long as the
          // incarnation lives.
          env_.engine.ScheduleAfter(env_.cost.watch_retry_backoff,
                                    [this, session] {
                                      if (harness_.crashed() ||
                                          harness_.session() != session) {
                                        return;
                                      }
                                      AdoptBoundPods();
                                    });
          return;
        }
        for (auto& pod : *result) {
          if (model::GetNodeName(pod) != node_name_) continue;
          // Kd lists only published pods. In K8s a published pod is a
          // Running one: adopted here (the watch seed below keeps its
          // own copy), it is already running when that seed reaches
          // OnPodBound, which then starts nothing.
          if (mode_ == Mode::kKd ||
              model::GetPodPhase(pod) == model::PodPhase::kRunning) {
            published_.insert(pod.Key());
            // kdlint: allow(R5) kubelet-local pod table: the sandboxes, fed by the bound-pod watch (K8s) / ingress (Kd), not an API mirror
            cache_.Upsert(pod);
          }
          if (mode_ == Mode::kK8s) {
            // kdlint: allow(R5) field-selector watch cache: its owner seeds it, the server has no filtered List
            watch_cache_.Upsert(std::move(pod));
          }
        }
        harness_.SetBaselineSynced(true);
        harness_.MaybeStartUpstream();
      });
}

void Kubelet::OnPodMessage(const kubedirect::KdMessage& msg) {
  materializing_.insert(msg.obj_key);
  StatusOr<ApiObject> pod = kubedirect::Materialize(msg, cache_);
  if (!pod.ok()) {
    // Dangling ReplicaSet pointer: informer lag; retry shortly.
    const kubedirect::KdMessage retry = msg;
    env_.engine.ScheduleAfter(Milliseconds(5), [this, retry] {
      if (!harness_.crashed()) OnPodMessage(retry);
    });
    return;
  }
  env_.engine.ScheduleAfter(
      env_.cost.kd_materialize,
      [this, pod = std::move(*pod)]() mutable {
        if (harness_.crashed()) return;
        const std::string key = pod.Key();
        materializing_.erase(key);
        if (condemned_.erase(key) > 0) {
          // Tombstoned while materializing: never start it; answer the
          // (idempotent) termination.
          if (harness_.upstream()) harness_.upstream()->SendRemoveNow(key);
          return;
        }
        OnPodBound(std::move(pod));
      });
}

void Kubelet::OnPodBound(ApiObject pod) {
  if (model::GetNodeName(pod) != node_name_) return;
  const std::string key = pod.Key();
  const ApiObject* known = cache_.Get(key);
  if (known != nullptr &&
      model::GetPodPhase(*known) != model::PodPhase::kPending) {
    return;  // already running/terminating; nothing to start
  }
  if (model::IsTerminating(pod)) return;
  // kdlint: allow(R5) kubelet-local pod table: the sandboxes, fed by the bound-pod watch (K8s) / ingress (Kd), not an API mirror
  cache_.Upsert(std::move(pod));
  if (starting_.count(key)) return;
  StartSandbox(key);
}

void Kubelet::StartSandbox(const std::string& pod_key) {
  starting_.insert(pod_key);
  sandbox_queue_.push_back(pod_key);
  start_times_[pod_key] = env_.engine.now();
  span_.MarkStart(env_.engine.now());
  PumpSandboxQueue();
}

void Kubelet::PumpSandboxQueue() {
  while (active_starts_ < sandbox_.concurrency && !sandbox_queue_.empty()) {
    const std::string key = sandbox_queue_.front();
    sandbox_queue_.pop_front();
    if (!starting_.count(key)) continue;  // cancelled while queued
    ++active_starts_;
    env_.engine.ScheduleAfter(sandbox_.cold_start, [this, key] {
      --active_starts_;
      if (!harness_.crashed() && starting_.count(key)) {
        starting_.erase(key);
        OnSandboxReady(key);
      }
      if (!harness_.crashed()) PumpSandboxQueue();
    });
  }
}

std::string Kubelet::AssignIp() {
  // Unique across the cluster: the node's subnet (hashed from its
  // name) plus a per-node counter — mirrors per-node pod CIDRs.
  std::uint32_t subnet = 2166136261u;
  for (char c : node_name_) {
    subnet = (subnet ^ static_cast<unsigned char>(c)) * 16777619u;
  }
  const std::uint32_t n = ip_counter_++;
  return StrFormat("10.%u.%u.%u:8080", (subnet >> 8) & 0xFF,
                   (subnet ^ (n >> 8)) & 0xFF, n & 0xFF);
}

void Kubelet::OnSandboxReady(const std::string& pod_key) {
  const ApiObject* pod = cache_.Get(pod_key);
  if (pod == nullptr || model::IsTerminating(*pod)) return;
  ApiObject running = *pod;
  model::SetPodPhase(running, model::PodPhase::kRunning);
  model::SetPodIp(running, AssignIp());
  // kdlint: allow(R5) kubelet-local pod table: the sandboxes, fed by the bound-pod watch (K8s) / ingress (Kd), not an API mirror
  cache_.Upsert(running);
  sandboxes_started_.Add();
  auto started = start_times_.find(pod_key);
  if (started != start_times_.end()) {
    // Provisioning-level cold start (bind arrival -> container up),
    // independent of the API publish — the sandbox keeps serving even
    // when the publish stalls against a down API server.
    sandbox_ready_latency_.RecordDuration(env_.engine.now() -
                                          started->second);
  }
  AnnounceEndpointUp(running);

  if (mode_ == Mode::kKd && harness_.upstream()) {
    // Soft-invalidate upstream: phase + IP (§4.2).
    kubedirect::KdMessage delta;
    delta.obj_key = pod_key;
    delta.attrs.emplace("status.phase",
                        kubedirect::KdValue::Literal("Running"));
    delta.attrs.emplace("status.podIP",
                        kubedirect::KdValue::Literal(
                            model::GetPodIp(running)));
    harness_.upstream()->SendSoftInvalidate(delta);
  }
  Publish(running);
}

void Kubelet::Publish(const ApiObject& pod) {
  // Step ⑤: expose the ready pod through the API server so downstream
  // routing/monitoring components (Endpoints controller, service mesh,
  // Prometheus) see a standard Kubernetes pod — both modes.
  const std::string key = pod.Key();
  auto on_done = [this, key](StatusOr<ApiObject> result) {
    if (!result.ok() || harness_.crashed()) return;
    if (cache_.Get(key) == nullptr) {
      // Terminated while the publish was in flight: the API object is
      // an orphan — remove it (durably).
      DeletePublished(key);
      return;
    }
    published_.insert(key);
    pods_published_.Add();
    span_.MarkStop(env_.engine.now());
    auto started = start_times_.find(key);
    if (started != start_times_.end()) {
      // Per-pod sandbox-manager latency (bind arrival -> published):
      // the isolated Fig. 9d measurement — immune to upstream lag.
      pod_latency_.RecordDuration(env_.engine.now() - started->second);
      start_times_.erase(started);
    }
  };
  if (mode_ == Mode::kKd) {
    // The pod was hidden from the API server until now: Create. Two
    // failure shapes need repair (found by the crash-point sweep):
    //   - AlreadyExists: our create committed but the ack died with
    //     the server (crash between fsync and response; the client's
    //     retry then hits its own write). Pod names are session-unique,
    //     so the record can only be ours — it counts as published.
    //     Without this, termination skips the API delete
    //     (was_published false) and the ghost record routes traffic
    //     to a dead pod forever.
    //   - Any other failure (outage outlasting the client's retry
    //     budget): re-publish level-triggered while the pod is live —
    //     publication is the data plane's visibility and must not be
    //     lost with one response.
    const std::uint64_t session = harness_.session();
    harness_.api().Create(
        pod, [this, key, session, on_done](StatusOr<ApiObject> result) {
          if (harness_.crashed() || harness_.session() != session) return;
          if (!result.ok() &&
              result.status().code() == StatusCode::kAlreadyExists) {
            on_done(StatusOr<ApiObject>(ApiObject{}));  // committed, unacked
            return;
          }
          if (!result.ok()) {
            const ApiObject* local = cache_.Get(key);
            if (local == nullptr || model::IsTerminating(*local)) return;
            const ApiObject retry = *local;
            env_.engine.ScheduleAfter(
                env_.cost.watch_retry_backoff, [this, session, retry] {
                  if (harness_.crashed() || harness_.session() != session) {
                    return;
                  }
                  if (cache_.Get(retry.Key()) == nullptr) return;
                  Publish(retry);
                });
            return;
          }
          on_done(std::move(result));
        });
    return;
  }
  // K8s mode: the object exists; update its status. Fetch-free
  // optimistic update using our watch-fresh copy.
  harness_.api().Update(pod, [this, key, on_done](StatusOr<ApiObject> result) {
    if (!result.ok() && !harness_.crashed() &&
        result.status().code() == StatusCode::kConflict) {
      // Stale version: re-read, then retry with the same completion.
      harness_.api().Get(
          kKindPod, key.substr(key.find('/') + 1),
          [this, key, on_done](StatusOr<ApiObject> fresh) {
            if (!fresh.ok() || harness_.crashed()) return;
            const ApiObject* local = cache_.Get(key);
            if (local == nullptr) return;
            ApiObject merged = *fresh;
            merged.status = local->status;
            harness_.api().Update(merged, on_done);
          });
      return;
    }
    on_done(std::move(result));
  });
}

void Kubelet::Terminate(const std::string& pod_key, bool notify_upstream) {
  const ApiObject* pod = cache_.Get(pod_key);
  starting_.erase(pod_key);  // cancels a queued/in-flight sandbox start
  if (pod == nullptr) {
    if (materializing_.count(pod_key)) {
      // The pod's forward message is mid-materialization; defer.
      condemned_.insert(pod_key);
    } else if (notify_upstream && mode_ == Mode::kKd && harness_.upstream()) {
      // Unknown pod: the forward message was dropped in flight.
      // Termination is idempotent — answer with the removal signal so
      // the upstream settles (§4.3).
      harness_.upstream()->SendRemoveNow(pod_key);
    }
    return;
  }
  pods_terminated_.Add();
  // kdlint: allow(R5) kubelet-local pod table: the sandboxes, fed by the bound-pod watch (K8s) / ingress (Kd), not an API mirror
  cache_.Remove(pod_key);
  const bool was_published = published_.erase(pod_key) > 0;
  // The container takes kubelet_terminate to actually die; only then do
  // the API delete and the upstream invalidation signal go out (§4.3).
  env_.engine.ScheduleAfter(
      env_.cost.kubelet_terminate, [this, pod_key, was_published,
                                    notify_upstream] {
        if (harness_.crashed()) return;
        AnnounceEndpointDown(pod_key);
        if (was_published) DeletePublished(pod_key);
        if (notify_upstream && mode_ == Mode::kKd && harness_.upstream()) {
          // Immediate flush so synchronous preemption observes minimal
          // latency.
          harness_.upstream()->SendRemoveNow(pod_key);
        }
      });
}

void Kubelet::DeletePublished(const std::string& pod_key) {
  // Durable unpublish (found by the crash-point sweep): a terminated
  // pod's API record must come down even when the delete's response —
  // or the server — dies first. A leaked Running record keeps routing
  // traffic to a dead pod and would be wrongly re-adopted as a
  // survivor after a kubelet restart. Retry until the server confirms
  // it gone; NotFound means an earlier attempt (or an eviction's
  // parallel delete) already won. Pod names are never reused, so the
  // retry can never delete a successor.
  const std::uint64_t session = harness_.session();
  harness_.api().Delete(
      kKindPod, pod_key.substr(pod_key.find('/') + 1),
      [this, pod_key, session](Status status) {
        if (harness_.crashed() || harness_.session() != session) return;
        if (status.ok() || status.code() == StatusCode::kNotFound) return;
        env_.engine.ScheduleAfter(
            env_.cost.watch_retry_backoff, [this, pod_key, session] {
              if (harness_.crashed() || harness_.session() != session) return;
              DeletePublished(pod_key);
            });
      });
}

void Kubelet::Evict(const std::string& pod_key) {
  Terminate(pod_key, /*notify_upstream=*/mode_ == Mode::kKd);
  if (mode_ == Mode::kK8s) {
    // Stock eviction deletes the API object; controllers observe it.
    harness_.api().Delete(kKindPod, pod_key.substr(pod_key.find('/') + 1),
                          [](Status) {});
  }
}

void Kubelet::DrainAllKdPods() {
  std::vector<std::string> keys;
  for (const ApiObject* pod : cache_.List(kKindPod)) {
    keys.push_back(pod->Key());
  }
  for (const std::string& key : keys) {
    // Notify upstream even though the Scheduler usually already assumed
    // these terminated (the signal is then an idempotent no-op): the
    // invalid mark can also reach us AFTER the Scheduler un-cancelled
    // the node and resumed placing — pods caught by that watch-latency
    // race must be reported dead or the upstream accounting wedges. If
    // the link is down the send is dropped and the next handshake's
    // version exchange reconciles instead.
    Terminate(key, /*notify_upstream=*/true);
  }
  nodes_drained_.Add();
}

bool Kubelet::DirectEndpointsEnabled() const {
  return mode_ == Mode::kKd && env_.cost.kd_direct_endpoint_publish;
}

void Kubelet::EnsureEndpointStream() {
  if (!DirectEndpointsEnabled() || harness_.crashed()) return;
  if (ep_stream_ != nullptr && ep_stream_->connected()) return;
  if (ep_stream_connecting_) return;
  ep_stream_connecting_ = true;
  harness_.endpoint().Connect(
      Addresses::EndpointsController(),
      [this](StatusOr<net::ConnHandlePtr> result) {
        ep_stream_connecting_ = false;
        if (harness_.crashed()) return;
        if (!result.ok()) {
          // Endpoints controller down or unreachable; retry while we
          // hold announcements it has not confirmed seeing.
          if (!ep_announced_.empty()) {
            env_.engine.ScheduleAfter(env_.cost.watch_retry_backoff,
                                      [this] { EnsureEndpointStream(); });
          }
          return;
        }
        ep_stream_ = std::move(*result);
        ep_stream_->set_on_disconnect([this] {
          if (harness_.crashed()) return;
          ep_stream_.reset();
          if (!ep_announced_.empty()) {
            env_.engine.ScheduleAfter(env_.cost.watch_retry_backoff,
                                      [this] { EnsureEndpointStream(); });
          }
        });
        // Level-triggered resync: the receiver drops whatever it knew
        // from our previous incarnation, then learns the current set.
        (void)ep_stream_->Send(net::Payload::Text("reset " + node_name_));
        for (const auto& [key, entry] : ep_announced_) {
          (void)ep_stream_->Send(net::Payload::Text(
              "up " + node_name_ + " " + key + " " + entry.first + " " +
              entry.second));
        }
      });
}

void Kubelet::AnnounceEndpointUp(const ApiObject& pod) {
  if (!DirectEndpointsEnabled()) return;
  const std::string service = model::GetLabel(pod, "app");
  const std::string ip = model::GetPodIp(pod);
  if (service.empty() || ip.empty()) return;
  ep_announced_[pod.Key()] = {service, ip};
  if (ep_stream_ != nullptr && ep_stream_->connected()) {
    (void)ep_stream_->Send(net::Payload::Text(
        "up " + node_name_ + " " + pod.Key() + " " + service + " " + ip));
    return;
  }
  EnsureEndpointStream();  // resync-on-connect delivers it
}

void Kubelet::AnnounceEndpointDown(const std::string& pod_key) {
  if (!DirectEndpointsEnabled()) return;
  if (ep_announced_.erase(pod_key) == 0) return;
  if (ep_stream_ != nullptr && ep_stream_->connected()) {
    (void)ep_stream_->Send(
        net::Payload::Text("down " + node_name_ + " " + pod_key));
    return;
  }
  EnsureEndpointStream();
}

std::size_t Kubelet::running_pods() const {
  std::size_t n = 0;
  for (const ApiObject* pod : cache_.List(kKindPod)) {
    if (model::GetPodPhase(*pod) == model::PodPhase::kRunning) ++n;
  }
  return n;
}

}  // namespace kd::controllers
