// SloGuard: continuously-evaluated service-level invariants for
// scenario runs — the scenario engine's pass/fail oracle.
//
// Three guards, all disabled by default (a default-constructed guard
// never trips, so attaching one to an existing run changes nothing):
//
//   cold-p99           — the recent cold-start p99 must stay within
//                        `cold_p99_ratio` × the quiet-run baseline;
//   endpoint-staleness — no function's gateway endpoint view may
//                        diverge from the cluster's ready pods for
//                        longer than `endpoint_staleness` continuously
//                        (transient divergence during propagation is
//                        expected and tolerated);
//   lost-invocations   — every invocation ever issued is either
//                        completed or still pending (queued/executing):
//                        reclaim waves and upgrades may slow requests
//                        down but must never drop one.
//
// The guard is pure bookkeeping over SloSnapshots the ScenarioRunner
// assembles each epoch: no engine, no clock reads, trivially testable.
// Trips are edge-triggered — one Breach record per false→true
// transition — and `tripped()` reflects the current state, so tests
// can assert both "it tripped during the wave" and "it cleared after".
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/lane.h"
#include "common/time.h"

namespace kd::scenario {

struct SloLimits {
  // cold-p99 guard: active only when both fields are positive.
  double cold_p99_ratio = 0;
  double quiet_cold_p99_ms = 0;
  // endpoint-staleness guard: active when positive.
  Duration endpoint_staleness = 0;
  // lost-invocations guard.
  bool check_no_lost = false;

  bool any_enabled() const {
    return (cold_p99_ratio > 0 && quiet_cold_p99_ms > 0) ||
           endpoint_staleness > 0 || check_no_lost;
  }
};

// One epoch's observations, assembled by the runner from the gateway
// and the control plane's ground truth.
struct SloSnapshot {
  // Cold-start p99 (scheduling latency, ms) over the recent window;
  // `have_cold_sample` is false when the window holds no cold starts.
  bool have_cold_sample = false;
  double recent_cold_p99_ms = 0;
  // Functions whose gateway endpoint view differs from the cluster's
  // ready pods *right now*.
  std::vector<std::string> stale_functions;
  // Invocation accounting: issued must equal completed + pending.
  std::int64_t invocations_issued = 0;
  std::int64_t invocations_completed = 0;
  std::int64_t invocations_pending = 0;
};

class KD_LANE_OWNED(scenario) SloGuard {
 public:
  SloGuard() = default;
  explicit SloGuard(SloLimits limits) : limits_(limits) {}

  struct Breach {
    Time at = 0;
    std::string guard;  // "cold-p99" | "endpoint-staleness" | "lost-invocations"
    std::string detail;
  };

  void Observe(Time now, const SloSnapshot& snapshot);

  // Currently in breach of `guard`?
  bool tripped(const std::string& guard) const {
    return tripped_.count(guard) > 0;
  }
  // Every false→true transition, in observation order.
  const std::vector<Breach>& breaches() const { return breaches_; }
  bool clean() const { return breaches_.empty(); }
  const SloLimits& limits() const { return limits_; }

 private:
  void SetTripped(Time now, const std::string& guard, bool in_breach,
                  const std::string& detail);

  SloLimits limits_;
  // function -> when its endpoint view started diverging (erased the
  // first epoch the views agree again).
  std::map<std::string, Time> stale_since_;
  std::set<std::string> tripped_;
  std::vector<Breach> breaches_;
};

}  // namespace kd::scenario
