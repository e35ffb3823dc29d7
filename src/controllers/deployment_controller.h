// The Deployment controller — step ② of the critical path (Fig. 1).
//
// Selects the ReplicaSet of the Deployment's current revision and
// propagates the desired replica count to it. Like the Autoscaler it
// is level-triggered and idempotent (§4.1): it tracks the last value
// sent per ReplicaSet and re-forwards after link resets.
//
// ReplicaSet *creation* (new function versions / rollouts) is an
// offline upstream operation in both modes and goes through the API
// server — matching the paper's observation that platform
// configuration is not on the scaling critical path.
//
// The ReplicaSet lookup runs on every scale step, so it reads an owner
// index (Deployment name -> visible ReplicaSet keys) kept by the cache
// change handler instead of scanning every ReplicaSet.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "common/lane.h"
#include "controllers/types.h"
#include "runtime/harness.h"

namespace kd::controllers {

class KD_LANE_OWNED(deployment) DeploymentController {
 public:
  DeploymentController(runtime::Env& env, Mode mode);

  void Start() { harness_.Start(); }
  void Crash() { harness_.Crash(); }
  void Restart() { harness_.Restart(); }

  // Fault-injection seams (crash-point sweep).
  runtime::ControllerHarness& harness() { return harness_; }

  bool link_ready() const { return harness_.link_ready(); }

  // The ReplicaSet of `deployment`'s current revision: the first
  // visible one, in key order, owned by it with that revision. nullptr
  // if none.
  const model::ApiObject* FindReplicaSet(
      const model::ApiObject& deployment) const;

  // Observability: the informer cache (Deployments + ReplicaSets).
  const runtime::ObjectCache& cache() const { return cache_; }

 private:
  Duration Reconcile(const std::string& deployment_name);
  void OnScaleMessage(const kubedirect::KdMessage& msg);

  runtime::Env& env_;
  Mode mode_;
  runtime::ControllerHarness harness_;
  runtime::ObjectCache cache_;  // Deployments + ReplicaSets (informer)
  MetricsRecorder::Span span_ = env_.metrics.ResolveSpan("deployment");
  // Owner index: Deployment name -> keys of the visible ReplicaSets it
  // owns, kept in step with cache_ by its change handler and reset on
  // crash (the cache's Clear fires no handlers). Only looked up by
  // name, so the outer map hashes; each key set is sorted, so
  // FindReplicaSet visits them in the key order of a List scan.
  std::unordered_map<std::string, std::set<std::string>> owned_rs_;

  // Kd mode: the authoritative desired replicas per Deployment (fed by
  // direct messages; the API-server copy is guarded and stale). Sorted:
  // on_ready enqueues in its order.
  std::map<std::string, std::int64_t> desired_;
  // Per ReplicaSet key; only looked up, so it hashes.
  std::unordered_map<std::string, std::int64_t> last_sent_;
};

}  // namespace kd::controllers
