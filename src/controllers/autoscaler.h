// The Autoscaler — step ① of the critical path (Fig. 1).
//
// This is the narrow-waist entry point: platform-specific autoscaling
// policies (Knative's concurrency-based autoscaler, the strawman
// one-shot scaler of §6.1) all funnel into ScaleTo(deployment, n).
//
// Level-triggered like the TLA+ spec's Autoscaler module: the desired
// replica count is recomputed each loop iteration and re-sent whenever
// it differs from the last successfully transmitted value
// (LastDesiredReplicas); nothing about past decisions needs to be
// remembered across a crash.
//
//   K8s mode: updates Deployment.spec.replicas through the API server
//             (optimistic-concurrency retries on conflict).
//   Kd  mode: updates its local view and sends a ~60 B delta message
//             to the Deployment controller.
#pragma once

#include <map>
#include <string>
#include <unordered_map>

#include "common/lane.h"
#include "controllers/types.h"
#include "runtime/harness.h"

namespace kd::controllers {

struct AutoscalerOptions {
  // Scale-DOWN hold-down after a restart or a downstream-link
  // re-handshake (a rolling control-plane upgrade, §scenario): demand
  // estimates are distorted while the chain reconnects — requests
  // queue during the pause, the panic heuristic inflates desired, and
  // the post-recovery correction would whipsaw capacity down and back
  // up. Holding scale-downs (scale-ups always pass) keeps the fleet
  // steady until the window expires; the deferred reconcile then
  // applies the policy's latest word. 0 disables (default: behaviour
  // and event traces identical to the pre-option tree).
  Duration scale_down_hold = 0;
};

class KD_LANE_OWNED(autoscaler) Autoscaler {
 public:
  Autoscaler(runtime::Env& env, Mode mode, AutoscalerOptions options = {});

  // Syncs the Deployment informer (and in Kd mode connects the link to
  // the Deployment controller).
  void Start() { harness_.Start(); }

  // Sets the desired scale for a Deployment. Called by the platform's
  // autoscaling policy; repeat calls with the same value are no-ops.
  void ScaleTo(const std::string& deployment_name, std::int64_t replicas);

  std::int64_t DesiredFor(const std::string& deployment_name) const;

  // Failure injection: Crash drops all soft state and the link;
  // Restart re-syncs. The platform re-issues desired scales on its
  // next evaluation tick (level-triggered).
  void Crash() { harness_.Crash(); }
  void Restart();

  // Fault-injection seams (crash-point sweep).
  runtime::ControllerHarness& harness() { return harness_; }

  bool link_ready() const { return harness_.link_ready(); }

 private:
  Duration Reconcile(const std::string& deployment_name);
  void SendScale(const std::string& deployment_name, std::int64_t replicas);
  // True while a scale-down for `deployment_name` must wait out the
  // post-recovery hold window (options_.scale_down_hold).
  bool HoldScaleDown(const std::string& deployment_name,
                     std::int64_t replicas) const;

  runtime::Env& env_;
  Mode mode_;
  AutoscalerOptions options_;
  runtime::ControllerHarness harness_;
  runtime::ObjectCache cache_;  // Deployments (informer view)
  MetricsRecorder::Span span_ = env_.metrics.ResolveSpan("autoscaler");
  MetricsRecorder::Counter scale_down_held_ =
      env_.metrics.ResolveCounter("autoscaler.scale_down_held");

  // Desired per deployment (the policy's latest word) and the last
  // value successfully handed downstream. The forward link to the
  // Deployment controller is level-triggered and carries no handshake
  // state (Fig. 15's "negligible overhead"): re-forwarding happens in
  // the next scaling call. desired_ is sorted because on_ready enqueues
  // in its order; the maps below are only looked up, so they hash.
  std::map<std::string, std::int64_t> desired_;
  std::unordered_map<std::string, std::int64_t> last_sent_;
  // Highest value ever handed downstream per deployment — unlike
  // last_sent_ it survives link churn (cleared only by a crash), so
  // the hold window knows what "down" means right after a re-handshake
  // wiped last_sent_.
  std::unordered_map<std::string, std::int64_t> last_applied_;
  // Start of the current steady period: the later of our last restart
  // and the downstream link's last re-handshake. Scale-downs wait
  // until steady_since_ + scale_down_hold.
  Time steady_since_ = kNeverSteady;
  static constexpr Time kNeverSteady = -(1ll << 60);
};

}  // namespace kd::controllers
