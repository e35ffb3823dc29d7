// Concurrency-driven autoscaling policy — the upstream of the narrow
// waist. Both Knative's autoscaler and Dirigent's compute the desired
// replica count from the number of in-flight requests (§6.2); they
// differ in reaction speed and hysteresis, captured by PolicyParams.
//
// The policy evaluates every `tick`, and additionally reacts
// immediately when the gateway reports queueing (Knative's activator
// path), so cold-start latency is dominated by the *control plane*,
// not by the policy — which is exactly the regime the paper studies.
#pragma once

#include <deque>
#include <map>
#include <string>

#include "common/time.h"
#include "faas/gateway.h"
#include "faas/types.h"
#include "sim/engine.h"

namespace kd::faas {

struct PolicyParams {
  Duration tick = Seconds(1);
  // Desired = ceil(max demand over the window / target_concurrency).
  int target_concurrency = 1;
  // Scale-down hysteresis: how long demand must stay low.
  Duration scale_down_window = Seconds(30);
  // Idle instances retained (0 = scale to zero).
  std::int64_t min_replicas = 0;
  // Panic mode (Knative): when requests are queueing faster than they
  // start, the desired count is inflated by this factor — the
  // "desperately scaling up even more replicas" behaviour the paper
  // blames for extra cold starts on slow control planes (§6.2).
  double panic_factor = 1.5;
  // Throttle for the queue-triggered fast path.
  Duration burst_react_interval = Milliseconds(100);

  static PolicyParams Knative() {
    PolicyParams p;
    p.tick = Seconds(2);  // stock autoscaler cadence
    return p;
  }
  static PolicyParams Dirigent() {
    PolicyParams p;
    p.tick = Milliseconds(500);          // leaner control loop
    p.scale_down_window = Seconds(10);   // more aggressive down-scaling
    p.panic_factor = 1.0;                // no panic heuristic
    return p;
  }
};

class AutoscalePolicy {
 public:
  AutoscalePolicy(sim::Engine& engine, Gateway& gateway, Backend& backend,
                  PolicyParams params);

  // `fn` is the function's gateway handle, through which every
  // evaluation reads its queued and executing counts.
  void RegisterFunction(const FunctionSpec& spec, Gateway::FunctionId fn);

  // Begins the periodic evaluation loop and hooks the gateway's
  // queue-growth signal.
  void Start();
  void Stop() { running_ = false; }

  std::int64_t DesiredFor(const std::string& function) const;
  std::uint64_t scale_calls() const { return scale_calls_; }

 private:
  struct FunctionState {
    Gateway::FunctionId fn = 0;
    int concurrency = 1;
    std::deque<std::pair<Time, std::int64_t>> demand_window;
    std::int64_t last_desired = 0;
    Time last_burst_react = -1;
  };

  void Tick();
  void Evaluate(const std::string& function, FunctionState& state);

  sim::Engine& engine_;
  Gateway& gateway_;
  Backend& backend_;
  PolicyParams params_;
  std::map<std::string, FunctionState> functions_;
  bool running_ = false;
  std::uint64_t scale_calls_ = 0;
};

}  // namespace kd::faas
