#include "controllers/deployment_controller.h"

#include "model/objects.h"

namespace kd::controllers {

using model::ApiObject;
using model::kKindDeployment;
using model::kKindReplicaSet;

DeploymentController::DeploymentController(runtime::Env& env, Mode mode)
    : env_(env),
      mode_(mode),
      harness_(env, mode,
               {.name = "deployment",
                .client_id = "deployment-controller",
                .address = Addresses::DeploymentController(),
                .qps = env.cost.controller_qps,
                .burst = env.cost.controller_burst}) {
  harness_.SetReconciler(
      [this](const std::string& key) { return Reconcile(key); });
  // A Deployment change (watch event or direct message) triggers its
  // reconcile; ReplicaSet changes trigger the owning Deployment's. The
  // handler fires on every visible mutation (invalidation included,
  // after == nullptr), so owned_rs_ membership == List visibility.
  cache_.AddChangeHandler([this](const std::string& key,
                                 const ApiObject* before,
                                 const ApiObject* after) {
    const ApiObject* obj = after != nullptr ? after : before;
    if (obj == nullptr) return;
    if (obj->kind == kKindDeployment) {
      harness_.loop().Enqueue(obj->name);
    } else if (obj->kind == kKindReplicaSet) {
      if (before != nullptr) {
        auto it = owned_rs_.find(model::GetOwnerName(*before));
        if (it != owned_rs_.end()) {
          it->second.erase(key);
          if (it->second.empty()) owned_rs_.erase(it);
        }
      }
      const std::string& owner = model::GetOwnerName(*obj);
      if (after != nullptr) owned_rs_[owner].insert(key);
      harness_.loop().Enqueue(owner);
    }
  });
  harness_.SyncKind(cache_, kKindDeployment);
  harness_.SyncKind(cache_, kKindReplicaSet);

  runtime::ControllerHarness::UpstreamSpec upstream;
  upstream.kind_filter = "__none__";
  upstream.callbacks.on_upsert = [this](const kubedirect::KdMessage& msg) {
    OnScaleMessage(msg);
  };
  harness_.ServeUpstream(std::move(upstream));

  runtime::ControllerHarness::DownstreamSpec link;
  link.peer = Addresses::ReplicaSetController();
  link.kind_filter = "__none__";
  link.callbacks.on_ready = [this](const kubedirect::ChangeSet&) {
    last_sent_.clear();
    for (const auto& [name, replicas] : desired_) harness_.loop().Enqueue(name);
  };
  link.callbacks.on_down = [this] { last_sent_.clear(); };
  harness_.ConnectDownstream(std::move(link));

  harness_.OnCrash([this] {
    desired_.clear();
    last_sent_.clear();
    owned_rs_.clear();  // cache Clear() fires no handlers
  });
}

void DeploymentController::OnScaleMessage(const kubedirect::KdMessage& msg) {
  // Expected shape: {Deployment/<name>, spec.replicas -> N}.
  const std::size_t slash = msg.obj_key.find('/');
  if (slash == std::string::npos) return;
  const std::string name = msg.obj_key.substr(slash + 1);
  auto it = msg.attrs.find("spec.replicas");
  if (it == msg.attrs.end() || it->second.is_pointer()) return;
  desired_[name] = it->second.literal().as_int();
  harness_.loop().Enqueue(name);
}

const ApiObject* DeploymentController::FindReplicaSet(
    const ApiObject& deployment) const {
  auto owned = owned_rs_.find(deployment.name);
  if (owned == owned_rs_.end()) return nullptr;
  const std::int64_t revision = model::GetRevision(deployment);
  for (const std::string& rs_key : owned->second) {
    const ApiObject* rs = cache_.Get(rs_key);
    if (rs != nullptr && model::GetRevision(*rs) == revision) return rs;
  }
  return nullptr;
}

Duration DeploymentController::Reconcile(const std::string& deployment_name) {
  const ApiObject* deployment =
      cache_.Get(ApiObject::MakeKey(kKindDeployment, deployment_name));
  if (deployment == nullptr) return 0;

  std::int64_t desired;
  if (mode_ == Mode::kKd) {
    auto it = desired_.find(deployment_name);
    if (it == desired_.end()) return 0;  // no scale decision yet
    desired = it->second;
  } else {
    desired = model::GetReplicas(*deployment);
  }

  const ApiObject* rs = FindReplicaSet(*deployment);
  if (rs == nullptr) {
    // ReplicaSet not registered yet (platform still configuring);
    // retry once it appears in the cache.
    harness_.loop().EnqueueAfter(deployment_name, Milliseconds(20));
    return 0;
  }

  span_.MarkStart(env_.engine.now());
  if (mode_ == Mode::kKd) {
    const std::string rs_key = rs->Key();
    auto sent = last_sent_.find(rs_key);
    if (sent != last_sent_.end() && sent->second == desired) return 0;
    kubedirect::HierarchyClient* downstream = harness_.downstream();
    if (downstream == nullptr || !downstream->ready()) {
      return 0;  // re-sent on_ready
    }
    kubedirect::KdMessage msg;
    msg.obj_key = rs_key;
    msg.attrs.emplace("spec.replicas", kubedirect::KdValue::Literal(desired));
    downstream->SendUpsert(std::move(msg));
    last_sent_[rs_key] = desired;
    span_.MarkStop(env_.engine.now());
    return 0;
  }

  if (model::GetReplicas(*rs) == desired) {
    span_.MarkStop(env_.engine.now());
    return 0;
  }
  ApiObject updated = *rs;
  model::SetReplicas(updated, desired);
  harness_.api().Update(
      updated, [this, deployment_name](StatusOr<ApiObject> result) {
        span_.MarkStop(env_.engine.now());
        if (!result.ok()) {
          if (!harness_.crashed()) {
            harness_.loop().EnqueueAfter(deployment_name, Milliseconds(5));
          }
          return;
        }
        // kdlint: allow(R5) write-through of the API response; waiting for the watch echo would double round-trip latency
        cache_.Upsert(std::move(*result));
      });
  return 0;
}

}  // namespace kd::controllers
