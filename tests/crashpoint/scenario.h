// The crash-point sweep scenario (shared by the sweep driver, the
// determinism golden-trace tests, and — in spirit — the property
// fuzzer's crashpoint action).
//
// Shape ported from OCF's surprise-shutdown harness: arm a fault at
// numbered operation #i of one victim component, run a fixed
// mixed-workload scenario, restart the victim once the crash fires,
// run to quiescence, and assert the full §4.4 invariant battery. The
// sweep driver advances i until a run completes with no fire — at
// that point every operation the scenario performs at that seam has
// been surprise-shut-down exactly once.
//
// Determinism contract: the scenario takes no seed — its action
// sequence is fixed — so (victim, index) fully determines the run.
// Two runs with the same injection point produce byte-identical
// event traces (see determinism_test.cc).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "common/fault_point.h"
#include "common/strings.h"
#include "invariants.h"
#include "model/objects.h"
#include "net/network.h"
#include "sim/engine.h"

namespace kd::crashpoint {

// The swept seams: one durable-layer write stream per victim.
//   kEtcdPersist         — every API-server persist (two points per
//                          write: pre-fsync and committed-unacked);
//   kSchedulerHandshake  — every Kd message the Scheduler receives
//                          (upstream server + per-Kubelet fan-out);
//   kKubeletHandshake    — every Kd message Kubelet 0 receives;
//   kReplicaSetTombstone — every termination intent the ReplicaSet
//                          controller records;
//   kSchedulerTombstone  — every termination intent the Scheduler
//                          records.
enum class Victim {
  kEtcdPersist,
  kSchedulerHandshake,
  kKubeletHandshake,
  kReplicaSetTombstone,
  kSchedulerTombstone,
};

inline const char* VictimName(Victim v) {
  switch (v) {
    case Victim::kEtcdPersist:
      return "etcd-persist";
    case Victim::kSchedulerHandshake:
      return "scheduler-handshake";
    case Victim::kKubeletHandshake:
      return "kubelet-handshake";
    case Victim::kReplicaSetTombstone:
      return "replicaset-tombstone";
    case Victim::kSchedulerTombstone:
      return "scheduler-tombstone";
  }
  return "?";
}

// Dry run: count the seam's operations without arming anything.
constexpr std::uint64_t kNoFault = ~std::uint64_t{0};

struct ScenarioResult {
  bool fired = false;     // the armed point was reached and fired
  std::uint64_t ops = 0;  // seam operation count at scenario end
  int restarts = 0;       // victim restarts performed (0 or 1)
};

class Scenario {
 public:
  // `trace` (optional): records the engine's full (time, seq) event
  // trace — the determinism tests fingerprint it. `observer`
  // (optional): the network's send observer, installed before boot.
  explicit Scenario(Victim victim, std::string* trace = nullptr,
                    net::Network::SendObserver observer = nullptr)
      : victim_(victim) {
    if (trace != nullptr) {
      engine_.set_trace_hook([trace](Time t, std::uint64_t seq,
                                     sim::EventId) {
        *trace += StrFormat("%lld %llu\n", static_cast<long long>(t),
                            static_cast<unsigned long long>(seq));
      });
    }
    cluster::ClusterConfig config = cluster::ClusterConfig::Kd(kNodes);
    config.realistic_pod_template = false;
    config.node_cpu_milli = 4000;
    config.scheduler.cancel_after_failures = 5;
    cluster_ = std::make_unique<cluster::Cluster>(engine_, std::move(config));
    cluster_->network().set_send_observer(std::move(observer));
  }

  // Arms the victim's seam at `index` (kNoFault: dry run), then runs
  // the fixed workload. Asserts the invariant battery at close; on an
  // assertion failure the returned result is still well-formed.
  ScenarioResult Run(std::uint64_t index) {
    if (index != kNoFault) fault().Arm(index);
    // Arm-before-Boot: boot-time writes and handshake messages are
    // sweepable too (crash mid-initial-handshake is prime recovery
    // territory). Boot tolerates a victim dying under it — its link
    // gate times out and the pump below restarts the victim.
    cluster_->Boot();
    MaybeRestart();
    cluster_->RegisterFunction("fn");

    ScaleTo(6);
    Pump(Seconds(8));
    ScaleTo(2);  // tombstone churn: 4 terminations replicate downstream
    Pump(Seconds(8));
    EvictOne();  // kubelet-initiated removal (backward signal path)
    Pump(Seconds(4));
    ScaleTo(4);
    Close();

    ScenarioResult result;
    result.fired = fault().fired();
    result.ops = fault().ops();
    result.restarts = restarts_;
    return result;
  }

 private:
  static constexpr int kNodes = 3;

  FaultPoint& fault() {
    switch (victim_) {
      case Victim::kEtcdPersist:
        return cluster_->apiserver().persist_fault();
      case Victim::kSchedulerHandshake:
        return cluster_->scheduler().harness().handshake_fault();
      case Victim::kKubeletHandshake:
        return cluster_->kubelet(0).harness().handshake_fault();
      case Victim::kReplicaSetTombstone:
        return cluster_->replicaset_controller().harness().tombstone_fault();
      case Victim::kSchedulerTombstone:
        return cluster_->scheduler().harness().tombstone_fault();
    }
    return cluster_->apiserver().persist_fault();  // unreachable
  }

  bool VictimDown() {
    switch (victim_) {
      case Victim::kEtcdPersist:
        return !cluster_->apiserver().up();
      case Victim::kSchedulerHandshake:
      case Victim::kSchedulerTombstone:
        return cluster_->scheduler().harness().crashed();
      case Victim::kKubeletHandshake:
        return cluster_->kubelet(0).harness().crashed();
      case Victim::kReplicaSetTombstone:
        return cluster_->replicaset_controller().harness().crashed();
    }
    return false;
  }

  void RestartVictim() {
    switch (victim_) {
      case Victim::kEtcdPersist:
        cluster_->apiserver().Restart();
        break;
      case Victim::kSchedulerHandshake:
      case Victim::kSchedulerTombstone:
        cluster_->scheduler().Restart();
        break;
      case Victim::kKubeletHandshake:
        cluster_->kubelet(0).Restart();
        break;
      case Victim::kReplicaSetTombstone:
        cluster_->replicaset_controller().Restart();
        break;
    }
    ++restarts_;
    // The platform is level-triggered: it re-issues its latest
    // decision on its next evaluation tick.
    cluster_->ScaleTo("fn", desired_);
  }

  // The surprise shutdown is deferred one engine step, so "fired but
  // not yet down" is a transient the next RunFor resolves.
  void MaybeRestart() {
    if (fault().fired() && VictimDown()) RestartVictim();
  }

  // Advances time in small steps, restarting the victim as soon as
  // the armed crash fires (mean time to repair ≤ 20 ms).
  void Pump(Duration d) {
    Duration left = d;
    while (left > 0) {
      const Duration step = std::min<Duration>(left, Milliseconds(20));
      engine_.RunFor(step);
      left -= step;
      MaybeRestart();
    }
  }

  void ScaleTo(int replicas) {
    desired_ = replicas;
    cluster_->ScaleTo("fn", replicas);
  }

  // Evicts the first pod in (kubelet, key) order — deterministic:
  // ObjectCache::List is key-ordered.
  void EvictOne() {
    for (int k = 0; k < kNodes; ++k) {
      const auto pods = cluster_->kubelet(k).cache().List(model::kKindPod);
      if (!pods.empty()) {
        cluster_->kubelet(k).Evict(pods.front()->Key());
        return;
      }
    }
  }

  // Liveness Assumption (§4.4): the victim stays up long enough for
  // end-to-end message passing, then the invariant battery must hold.
  void Close() {
    cluster_->ScaleTo("fn", desired_);
    // A late-armed point can fire during the convergence wait or the
    // quiesce window; retry until a full quiesce passes with no
    // restart (one armed point ⇒ at most one crash per run, so two
    // attempts always suffice).
    bool settled = false;
    for (int attempt = 0; attempt < 3 && !settled; ++attempt) {
      const bool converged = cluster_->RunUntil(
          [&] {
            MaybeRestart();
            return !VictimDown() &&
                   cluster_->ReadyPodCount("fn") ==
                       static_cast<std::size_t>(desired_);
          },
          Seconds(600));
      ASSERT_TRUE(converged)
          << VictimName(victim_) << ": KdConvergence violated, want "
          << desired_ << " got " << cluster_->ReadyPodCount("fn");
      const int before = restarts_;
      Pump(Seconds(10));
      settled = restarts_ == before;
    }
    ASSERT_TRUE(settled) << VictimName(victim_) << ": never quiesced";
    ASSERT_EQ(cluster_->ReadyPodCount("fn"),
              static_cast<std::size_t>(desired_))
        << VictimName(victim_) << ": did not stay converged";
    CheckInvariants();
  }

  // The shared §4.4 battery (invariants.h).
  void CheckInvariants() {
    invariants::CheckQuiescentInvariants(*cluster_, kNodes, "fn");
  }

  Victim victim_;
  sim::Engine engine_;
  std::unique_ptr<cluster::Cluster> cluster_;
  int desired_ = 0;
  int restarts_ = 0;
};

// Runs one (victim, index) scenario; `trace` and `observer` as in
// Scenario's ctor.
inline ScenarioResult RunScenario(
    Victim victim, std::uint64_t index, std::string* trace = nullptr,
    net::Network::SendObserver observer = nullptr) {
  Scenario scenario(victim, trace, std::move(observer));
  return scenario.Run(index);
}

}  // namespace kd::crashpoint
