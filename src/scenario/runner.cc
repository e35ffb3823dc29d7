#include "scenario/runner.h"

#include <algorithm>

#include "common/strings.h"
#include "model/objects.h"

namespace kd::scenario {

ScenarioRunner::ScenarioRunner(cluster::Cluster& cluster, Schedule schedule,
                               RunnerConfig config, faas::Platform* platform)
    : cluster_(cluster),
      platform_(platform),
      schedule_(std::move(schedule)),
      config_(std::move(config)),
      guard_(config_.slo) {}

void ScenarioRunner::Start() {
  started_at_ = cluster_.engine().now();
  started_ = true;
  for (const TimedOp& timed : schedule_.ops) {
    const Op op = timed.op;
    cluster_.engine().ScheduleAt(started_at_ + timed.at,
                                 [this, op] { Execute(op); });
  }
  if (config_.horizon > 0 && config_.slo.any_enabled()) {
    const Time stop_at = started_at_ + config_.horizon;
    cluster_.engine().ScheduleAfter(config_.epoch,
                                    [this, stop_at] { EpochTick(stop_at); });
  }
}

void ScenarioRunner::Log(const std::string& what) {
  op_log_.push_back(LogEntry{cluster_.engine().now(), what});
}

void ScenarioRunner::Execute(const Op& op) {
  Log(FormatOp(op));
  switch (op.kind) {
    case Op::Kind::kSpotReclaim:
      DoSpotReclaim(op);
      break;
    case Op::Kind::kRollingUpgrade:
      DoRollingUpgrade(op);
      break;
    case Op::Kind::kFlashCrowd:
      // Load shaping happens plan-side (ArrivalPlan); nothing to arm.
      break;
    case Op::Kind::kApiServerBlip:
      DoApiServerBlip(op);
      break;
    case Op::Kind::kPartition:
      DoPartition(op);
      break;
  }
}

void ScenarioRunner::MarkNodeReclaim(const std::string& node,
                                     std::int64_t at_ms) {
  const model::ApiObject* current =
      cluster_.apiserver().Peek(model::kKindNode, node);
  if (current == nullptr) return;
  model::ApiObject copy = *current;
  model::SetNodeReclaimAtMs(copy, at_ms);
  // The notice is an external fact from the cloud provider, not a
  // simulated client's request — seeded like Boot() seeds the Nodes.
  cluster_.apiserver().SeedObject(std::move(copy));
}

void ScenarioRunner::DoSpotReclaim(const Op& op) {
  const std::vector<std::string> pool = cluster_.NodesInPool(op.pool);
  const std::size_t take = static_cast<std::size_t>(
      op.fraction * static_cast<double>(pool.size()) + 0.5);
  const std::int64_t deadline_ms = static_cast<std::int64_t>(
      ToMillis(cluster_.engine().now() + op.notice));
  for (std::size_t i = 0; i < take && i < pool.size(); ++i) {
    const std::string node = pool[i];
    MarkNodeReclaim(node, deadline_ms);
    cluster_.engine().ScheduleAfter(op.notice,
                                    [this, node] { FinishReclaim(node); });
    if (op.respawn > 0) {
      cluster_.engine().ScheduleAfter(op.notice + op.respawn,
                                      [this, node] { RespawnNode(node); });
    }
  }
}

void ScenarioRunner::FinishReclaim(const std::string& node) {
  // Instances still on the machine when the provider takes it back die
  // abruptly — collect their addresses before the kubelet goes down.
  std::vector<std::string> doomed;
  for (const model::ApiObject* pod :
       cluster_.apiserver().PeekAll(model::kKindPod)) {
    if (model::GetNodeName(*pod) == node &&
        model::GetPodPhase(*pod) == model::PodPhase::kRunning) {
      doomed.push_back(model::GetPodIp(*pod));
    }
  }
  controllers::Kubelet* kubelet = cluster_.kubelet_by_node(node);
  if (kubelet != nullptr) kubelet->Crash();
  // The reclaim signal proper: the node is gone, invalidate everything
  // scheduled onto it (§4.3 cancellation path).
  cluster_.scheduler().CancelNode(node);
  std::size_t failed = 0;
  if (platform_ != nullptr && !doomed.empty()) {
    failed = platform_->gateway().FailInstances(doomed);
  }
  Log(StrFormat("reclaimed %s (%zu instances failed over)", node.c_str(),
                failed));
}

void ScenarioRunner::RespawnNode(const std::string& node) {
  controllers::Kubelet* kubelet = cluster_.kubelet_by_node(node);
  if (kubelet != nullptr) kubelet->Restart();
  MarkNodeReclaim(node, 0);
  // No explicit un-cancel: the Scheduler lifts the invalid mark itself
  // once the restarted Kubelet's link handshakes (OnKubeletReady).
  Log(StrFormat("respawned %s", node.c_str()));
}

void ScenarioRunner::DoRollingUpgrade(const Op& op) {
  // Downstream-first is the §4.2-safe direction: restart the leaves of
  // the hierarchy before the controllers that feed them.
  std::vector<std::string> victims = {"scheduler",  "replicaset",
                                      "endpoints",  "deployment",
                                      "autoscaler", "apiserver"};
  if (op.order == UpgradeOrder::kUpstreamFirst) {
    std::reverse(victims.begin(), victims.end());
  }
  UpgradeStep(std::move(victims), 0, op.down, op.pause);
}

void ScenarioRunner::UpgradeStep(std::vector<std::string> victims,
                                 std::size_t index, Duration down,
                                 Duration pause) {
  if (index >= victims.size()) {
    Log("rolling-upgrade complete");
    return;
  }
  const std::string victim = victims[index];
  CrashVictim(victim);
  Log(StrFormat("upgrade: %s down", victim.c_str()));
  cluster_.engine().ScheduleAfter(
      down, [this, victims = std::move(victims), index, down, pause] {
        RestartVictim(victims[index]);
        Log(StrFormat("upgrade: %s back", victims[index].c_str()));
        cluster_.engine().ScheduleAfter(
            pause, [this, victims = std::move(victims), index, down, pause] {
              UpgradeStep(std::move(victims), index + 1, down, pause);
            });
      });
}

void ScenarioRunner::CrashVictim(const std::string& victim) {
  if (victim == "scheduler") {
    cluster_.scheduler().Crash();
  } else if (victim == "replicaset") {
    cluster_.replicaset_controller().Crash();
  } else if (victim == "endpoints") {
    cluster_.endpoints_controller().Crash();
  } else if (victim == "deployment") {
    cluster_.deployment_controller().Crash();
  } else if (victim == "autoscaler") {
    cluster_.autoscaler().Crash();
  } else if (victim == "apiserver") {
    cluster_.apiserver().Crash();
  }
}

void ScenarioRunner::RestartVictim(const std::string& victim) {
  if (victim == "scheduler") {
    cluster_.scheduler().Restart();
  } else if (victim == "replicaset") {
    cluster_.replicaset_controller().Restart();
  } else if (victim == "endpoints") {
    cluster_.endpoints_controller().Restart();
  } else if (victim == "deployment") {
    cluster_.deployment_controller().Restart();
  } else if (victim == "autoscaler") {
    cluster_.autoscaler().Restart();
  } else if (victim == "apiserver") {
    cluster_.apiserver().Restart();
  }
}

void ScenarioRunner::DoApiServerBlip(const Op& op) {
  cluster_.apiserver().Crash();
  cluster_.engine().ScheduleAfter(op.down, [this] {
    cluster_.apiserver().Restart();
    Log("apiserver back");
  });
}

void ScenarioRunner::DoPartition(const Op& op) {
  cluster_.network().Partition(op.a, op.b);
  const std::string a = op.a;
  const std::string b = op.b;
  cluster_.engine().ScheduleAfter(op.duration, [this, a, b] {
    cluster_.network().Heal(a, b);
    Log(StrFormat("healed %s <-> %s", a.c_str(), b.c_str()));
  });
}

void ScenarioRunner::EpochTick(Time stop_at) {
  const Time now = cluster_.engine().now();
  guard_.Observe(now, Snapshot());
  if (now + config_.epoch <= stop_at) {
    cluster_.engine().ScheduleAfter(config_.epoch,
                                    [this, stop_at] { EpochTick(stop_at); });
  }
}

SloSnapshot ScenarioRunner::Snapshot() const {
  SloSnapshot snapshot;
  if (platform_ == nullptr) return snapshot;
  faas::Gateway& gateway = platform_->gateway();

  // Cold-start p99 over the sliding window. Records are appended in
  // completion order, so scanning from the back stays cheap.
  const Time cutoff = cluster_.engine().now() - config_.cold_window;
  Sample cold;
  const std::vector<faas::RequestRecord>& records = gateway.records();
  for (auto rit = records.rbegin(); rit != records.rend(); ++rit) {
    if (rit->completed < cutoff) break;
    if (rit->cold_start) cold.Add(ToMillis(rit->SchedulingLatency()));
  }
  snapshot.have_cold_sample = !cold.empty();
  if (snapshot.have_cold_sample) snapshot.recent_cold_p99_ms = cold.P99();

  std::int64_t pending = 0;
  for (const std::string& function : config_.functions) {
    pending += gateway.Demand(function);
    std::vector<std::string> view = gateway.Endpoints(function);
    std::vector<std::string> truth = cluster_.ReadyPodAddresses(function);
    std::sort(view.begin(), view.end());
    std::sort(truth.begin(), truth.end());
    if (view != truth) snapshot.stale_functions.push_back(function);
  }
  snapshot.invocations_issued =
      static_cast<std::int64_t>(gateway.total_invocations());
  snapshot.invocations_completed =
      static_cast<std::int64_t>(gateway.records().size());
  snapshot.invocations_pending = pending;
  return snapshot;
}

}  // namespace kd::scenario
