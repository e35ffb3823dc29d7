// ScenarioRunner: arms a declarative Schedule against a live Cluster
// (and optionally a FaaS Platform) and evaluates SloGuard invariants
// every epoch — the composed-operations layer over the existing
// single-fault seams (ROADMAP item 4).
//
// The runner only *composes* seams that already exist:
//
//   spot-reclaim    — writes a reclaimAtMs mark onto the victim Nodes
//                     (the cloud provider's reclamation notice, seeded
//                     straight into the store like any external fact);
//                     the Scheduler's informer picks it up and drains.
//                     At notice expiry the kubelet crashes, the node is
//                     cancelled (the §4.3 invalidation path), and the
//                     gateway's instances on it die abruptly. Optional
//                     respawn reverses all three.
//   rolling-upgrade — serial Crash()/Restart() over the controllers
//                     and the API server, in either hierarchy order,
//                     with a settle pause between victims.
//   flash-crowd     — plan-side only: load is shaped by ArrivalPlan
//                     (schedule.h); at runtime the op is just logged.
//   apiserver-blip  — ApiServer::Crash/Restart: an API-server outage.
//   partition       — net::Network::Partition/Heal on one link.
//
// Everything the runner schedules is armed from driver context with
// value-captured closures, so schedule + seed fully determine the
// event sequence. An empty schedule with a disabled guard schedules
// NOTHING — runs are byte-identical to not constructing a runner at
// all, which is what keeps the baseline fingerprints valid.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/lane.h"
#include "faas/platform.h"
#include "scenario/schedule.h"
#include "scenario/slo_guard.h"

namespace kd::scenario {

struct RunnerConfig {
  // Functions the SLO guard watches (endpoint staleness, lost
  // invocations). Ignored without a platform.
  std::vector<std::string> functions;
  // Guard evaluation cadence and how long to keep evaluating after
  // Start(). horizon == 0 disables the epoch chain entirely.
  Duration epoch = Seconds(1);
  Duration horizon = 0;
  // Sliding window for the recent cold-start p99.
  Duration cold_window = Seconds(30);
  SloLimits slo;
};

// Seam by design: the runner is driver-side orchestration that calls
// into many lanes (scheduler, kubelets, apiserver, network, gateway)
// through their public fault-injection surfaces.
class KD_LANE_SEAM ScenarioRunner {
 public:
  // `platform` may be null (control-plane-only scenarios); gateway-
  // based guards are skipped without it.
  ScenarioRunner(cluster::Cluster& cluster, Schedule schedule,
                 RunnerConfig config = {}, faas::Platform* platform = nullptr);

  // Arms every op (and the guard epoch chain, when enabled) relative
  // to the engine's current time. Call once, before running the
  // engine across the scenario window.
  void Start();

  struct LogEntry {
    Time at = 0;
    std::string what;
  };
  const std::vector<LogEntry>& op_log() const { return op_log_; }
  SloGuard& guard() { return guard_; }
  const SloGuard& guard() const { return guard_; }
  const Schedule& schedule() const { return schedule_; }

 private:
  void Execute(const Op& op);
  void DoSpotReclaim(const Op& op);
  void DoRollingUpgrade(const Op& op);
  void DoApiServerBlip(const Op& op);
  void DoPartition(const Op& op);
  // Notice expiry: the machine is actually taken away.
  void FinishReclaim(const std::string& node);
  // Replacement capacity for a reclaimed machine comes back.
  void RespawnNode(const std::string& node);
  // One rolling-upgrade step: crash victims[index], restart it after
  // `down`, then recurse to index+1 after the settle pause.
  void UpgradeStep(std::vector<std::string> victims, std::size_t index,
                   Duration down, Duration pause);
  void CrashVictim(const std::string& victim);
  void RestartVictim(const std::string& victim);
  // Writes `at_ms` (absolute sim ms; 0 clears) onto the Node object —
  // the provider-side reclamation notice.
  void MarkNodeReclaim(const std::string& node, std::int64_t at_ms);
  void EpochTick(Time stop_at);
  SloSnapshot Snapshot() const;
  void Log(const std::string& what);

  cluster::Cluster& cluster_;
  faas::Platform* platform_;
  Schedule schedule_;
  RunnerConfig config_;
  SloGuard guard_;
  std::vector<LogEntry> op_log_;
  Time started_at_ = 0;
  bool started_ = false;
};

}  // namespace kd::scenario
