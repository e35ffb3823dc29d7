#include "controllers/autoscaler.h"

#include "model/objects.h"

namespace kd::controllers {

using model::ApiObject;
using model::kKindDeployment;

Autoscaler::Autoscaler(runtime::Env& env, Mode mode,
                       AutoscalerOptions options)
    : env_(env),
      mode_(mode),
      options_(options),
      harness_(env, mode,
               {.name = "autoscaler",
                .client_id = "autoscaler",
                .address = Addresses::Autoscaler(),
                .qps = env.cost.controller_qps,
                .burst = env.cost.controller_burst}) {
  harness_.SetReconciler(
      [this](const std::string& key) { return Reconcile(key); });
  harness_.SyncKind(cache_, kKindDeployment);

  // Level-triggered link: after any (re)handshake, re-send every
  // desired value that is not known to have landed.
  runtime::ControllerHarness::DownstreamSpec link;
  link.peer = Addresses::DeploymentController();
  link.kind_filter = "__none__";
  link.callbacks.on_ready = [this](const kubedirect::ChangeSet&) {
    last_sent_.clear();
    // A re-handshake opens a fresh steady period: the chain just came
    // back, so demand-driven scale-downs wait out the hold window.
    if (options_.scale_down_hold > 0) steady_since_ = env_.engine.now();
    for (const auto& [name, replicas] : desired_) harness_.loop().Enqueue(name);
  };
  link.callbacks.on_down = [this] { last_sent_.clear(); };
  harness_.ConnectDownstream(std::move(link));

  harness_.OnCrash([this] {
    desired_.clear();
    last_sent_.clear();
    last_applied_.clear();
  });
}

void Autoscaler::Restart() {
  if (options_.scale_down_hold > 0) steady_since_ = env_.engine.now();
  harness_.Restart();
}

void Autoscaler::ScaleTo(const std::string& deployment_name,
                         std::int64_t replicas) {
  if (harness_.crashed()) return;
  desired_[deployment_name] = replicas;
  harness_.loop().Enqueue(deployment_name);
}

std::int64_t Autoscaler::DesiredFor(const std::string& deployment_name) const {
  auto it = desired_.find(deployment_name);
  return it == desired_.end() ? -1 : it->second;
}

bool Autoscaler::HoldScaleDown(const std::string& deployment_name,
                               std::int64_t replicas) const {
  if (options_.scale_down_hold <= 0) return false;
  if (env_.engine.now() >= steady_since_ + options_.scale_down_hold) {
    return false;
  }
  auto applied = last_applied_.find(deployment_name);
  return applied != last_applied_.end() && replicas < applied->second;
}

Duration Autoscaler::Reconcile(const std::string& deployment_name) {
  auto it = desired_.find(deployment_name);
  if (it == desired_.end()) return 0;
  const std::int64_t replicas = it->second;
  auto sent = last_sent_.find(deployment_name);
  if (sent != last_sent_.end() && sent->second == replicas) return 0;
  if (HoldScaleDown(deployment_name, replicas)) {
    // Upgrade-pause anti-flap: defer the scale-down until the hold
    // window expires; the deferred reconcile re-reads desired_, so a
    // demand recovery in the meantime simply wins.
    scale_down_held_.Add();
    harness_.loop().EnqueueAfter(
        deployment_name,
        steady_since_ + options_.scale_down_hold - env_.engine.now());
    return 0;
  }
  SendScale(deployment_name, replicas);
  return 0;
}

void Autoscaler::SendScale(const std::string& deployment_name,
                           std::int64_t replicas) {
  span_.MarkStart(env_.engine.now());
  if (mode_ == Mode::kKd) {
    kubedirect::HierarchyClient* downstream = harness_.downstream();
    if (downstream == nullptr || !downstream->ready()) {
      // Link down: the value stays in desired_; the on_ready callback
      // re-enqueues (opportunistic forwarding, §4.1).
      return;
    }
    kubedirect::KdMessage msg;
    msg.obj_key = ApiObject::MakeKey(kKindDeployment, deployment_name);
    msg.attrs.emplace("spec.replicas",
                      kubedirect::KdValue::Literal(replicas));
    downstream->SendUpsert(std::move(msg));
    last_sent_[deployment_name] = replicas;
    last_applied_[deployment_name] = replicas;
    span_.MarkStop(env_.engine.now());
    return;
  }

  // K8s mode: read-modify-write against the API server.
  const ApiObject* cached =
      cache_.Get(ApiObject::MakeKey(kKindDeployment, deployment_name));
  if (cached == nullptr) {
    // Informer not synced yet; retry shortly.
    harness_.loop().EnqueueAfter(deployment_name, Milliseconds(10));
    return;
  }
  if (model::GetReplicas(*cached) == replicas) {
    last_sent_[deployment_name] = replicas;
    last_applied_[deployment_name] = replicas;
    span_.MarkStop(env_.engine.now());
    return;
  }
  ApiObject updated = *cached;
  model::SetReplicas(updated, replicas);
  last_sent_[deployment_name] = replicas;
  last_applied_[deployment_name] = replicas;
  harness_.api().Update(
      updated, [this, deployment_name](StatusOr<ApiObject> result) {
        span_.MarkStop(env_.engine.now());
        if (!result.ok()) {
          // Conflict or transient failure: forget the send and retry
          // with the refreshed cache (level-triggered).
          last_sent_.erase(deployment_name);
          if (!harness_.crashed()) {
            harness_.loop().EnqueueAfter(deployment_name, Milliseconds(5));
          }
          return;
        }
        // kdlint: allow(R5) write-through of the API response; waiting for the watch echo would double round-trip latency
        cache_.Upsert(std::move(*result));
      });
}

}  // namespace kd::controllers
