// Declarative, deterministic ops/fault schedules — the scenario
// engine's input language (ROADMAP item 4).
//
// A Schedule is an ordered list of timed operations drawn from the
// production-operations catalog:
//
//   at 30s spot-reclaim pool=spot fraction=0.5 notice=10s [respawn=40s]
//   at 30s rolling-upgrade order=downstream-first pause=2s [down=500ms]
//   at 30s flash-crowd factor=10 ramp=5s hold=20s
//   at 30s apiserver-blip down=5s
//   at 30s partition a=kd.scheduler b=kd.kubelet.node-0003 duration=10s
//
// Times accept `ms`/`s`/`m` suffixes; `#` starts a comment. Parsing is
// pure (no engine, no clock): the same text always yields the same
// Schedule, and the ScenarioRunner arms it with plain ScheduleAt calls,
// so schedule + seed fully determine the run — the same property the
// crash-point sweep has, extended to composed multi-op scenarios.
//
// FlashCrowd is special: it modulates *load*, which the engine does not
// generate — the deterministic arrival-plan helpers below integrate the
// crowd profile into explicit invocation times that the driver
// schedules up front.
#pragma once

#include <string>
#include <vector>

#include "common/lane.h"
#include "common/status.h"
#include "common/time.h"

namespace kd::scenario {

enum class UpgradeOrder {
  kDownstreamFirst,  // the §4.2-safe direction: leaf to root
  kUpstreamFirst,    // the adversarial permutation
};

// One operation. Tagged struct rather than a variant: every field is
// plain data, trivially copyable into scheduled closures (kdlint R4).
struct KD_LANE_OWNED(scenario) Op {
  enum class Kind {
    kSpotReclaim,
    kRollingUpgrade,
    kFlashCrowd,
    kApiServerBlip,
    kPartition,
  };
  Kind kind = Kind::kSpotReclaim;

  // spot-reclaim: reclaim `fraction` of pool `pool` with `notice` of
  // grace; if respawn > 0, replacement capacity (same machines, fresh
  // kubelet incarnation) comes back that long after the reclaim.
  std::string pool;
  double fraction = 0.0;
  Duration notice = 0;
  Duration respawn = 0;

  // rolling-upgrade: serial controller and API-server restarts, `down`
  // of downtime per victim and `pause` of settle time between victims.
  // apiserver-blip: crash the API server for `down`.
  UpgradeOrder order = UpgradeOrder::kDownstreamFirst;
  Duration pause = 0;
  Duration down = Milliseconds(500);

  // flash-crowd: multiply arrival rates by `factor`, ramping linearly
  // over `ramp`, holding for `hold`, ramping back down over `ramp`.
  double factor = 1.0;
  Duration ramp = 0;
  Duration hold = 0;

  // partition: cut the network link a<->b for `duration`.
  std::string a;
  std::string b;
  Duration duration = 0;
};

struct KD_LANE_OWNED(scenario) TimedOp {
  Duration at = 0;  // relative to ScenarioRunner::Start()
  Op op;
};

struct KD_LANE_OWNED(scenario) Schedule {
  std::vector<TimedOp> ops;

  bool empty() const { return ops.empty(); }
};

// Parses the schedule text above. Ops keep their textual order; the
// runner arms them all up front, so equal `at` values fire in textual
// order (ScheduleAt ties break by scheduling sequence).
StatusOr<Schedule> ParseSchedule(const std::string& text);

// Human-readable one-liner for an op ("spot-reclaim pool=spot ..."),
// used by the runner's op log and the bench report.
std::string FormatOp(const Op& op);

// The flash-crowd load multiplier at time `t` (relative to schedule
// start): the product of every FlashCrowd op's trapezoid profile.
// Pure function of (schedule, t).
double FlashFactorAt(const Schedule& schedule, Duration t);

// Deterministic arrival plan for one function: arrivals spaced at
// 1/(base_rps * FlashFactorAt(t)), offset by `phase`, covering
// [0, length). No randomness: the plan is a pure function of its
// arguments, so the same schedule always produces the same load.
std::vector<Duration> ArrivalPlan(const Schedule& schedule, Duration length,
                                  double base_rps, Duration phase = 0);

}  // namespace kd::scenario
