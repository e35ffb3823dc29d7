// Figure 15: the overhead of hard invalidation — the handshake
// protocol re-run after a forced crash-restart, with the caches
// populated by the K-/N-/M-scalability setups (§6.3).
//
//   - ReplicaSet controller: N-scalability state (N pods, one
//     ReplicaSet); recover-mode handshake refetches pods in batches —
//     sub-linear in N.
//   - Scheduler: M-scalability state (5 pods/node); handshakes with all
//     Kubelets run in parallel — sub-linear in M.
//   - Autoscaler / Deployment controller: level-triggered, no state to
//     transfer; their handshake is a round trip.
#include "harness.h"

namespace kd::bench {
namespace {

using cluster::ClusterConfig;

const int kScales[] = {100, 200, 400, 800};

struct Row {
  std::string which;
  int scale;
  Duration handshake;
};

// Populates a Kd cluster with `pods` pods across `nodes` nodes, then
// crash-restarts `which` and measures until its links are ready again.
Duration MeasureRecovery(const std::string& which, int nodes, int pods) {
  sim::Engine engine;
  ClusterConfig config = ClusterConfig::Kd(nodes);
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  engine.RunFor(Milliseconds(200));
  cluster.ScaleTo("fn", pods);
  if (!cluster.RunUntil(
          [&] {
            return cluster.TotalReadyPods() == static_cast<std::size_t>(pods);
          },
          Minutes(30))) {
    return -1;
  }

  const Time start = engine.now();
  if (which == "replicaset") {
    cluster.replicaset_controller().Crash();
    cluster.replicaset_controller().Restart();
    cluster.RunUntil(
        [&] { return cluster.replicaset_controller().link_ready(); },
        Minutes(5));
  } else if (which == "scheduler") {
    cluster.scheduler().Crash();
    cluster.scheduler().Restart();
    cluster.RunUntil(
        [&] {
          for (int i = 0; i < nodes; ++i) {
            if (!cluster.scheduler().KubeletLinkReady(
                    cluster::Cluster::NodeName(i))) {
              return false;
            }
          }
          return true;
        },
        Minutes(5));
  } else if (which == "autoscaler") {
    cluster.autoscaler().Crash();
    cluster.autoscaler().Restart();
    cluster.RunUntil([&] { return cluster.autoscaler().link_ready(); },
                     Minutes(5));
  } else {  // deployment
    cluster.deployment_controller().Crash();
    cluster.deployment_controller().Restart();
    cluster.RunUntil(
        [&] { return cluster.deployment_controller().link_ready(); },
        Minutes(5));
  }
  return engine.now() - start;
}

void PrintFigure15(const std::vector<Row>& rows) {
  PrintHeader(
      "Figure 15: hard invalidation (crash-restart handshake) — "
      "ReplicaSet controller, state = N pods (sub-linear: batched fetch)",
      {"pods", "recovery"});
  for (const Row& row : rows) {
    if (row.which == "replicaset") {
      PrintRow({StrFormat("%d", row.scale), Ms(row.handshake)});
    }
  }
  PrintHeader(
      "Figure 15: Scheduler, state = 5 pods/node (sub-linear: parallel "
      "per-Kubelet handshakes)",
      {"nodes", "recovery"});
  for (const Row& row : rows) {
    if (row.which == "scheduler") {
      PrintRow({StrFormat("%d", row.scale), Ms(row.handshake)});
    }
  }
  PrintHeader("Level-triggered controllers (no state transfer)",
              {"controller", "recovery"});
  for (const Row& row : rows) {
    if (row.which == "autoscaler" || row.which == "deployment") {
      PrintRow({row.which, Ms(row.handshake)});
    }
  }
}


// --smoke: one stateful and one level-triggered recovery at tiny scale.
int RunSmoke() {
  const Duration rs = MeasureRecovery("replicaset", 8, 16);
  const Duration sched = MeasureRecovery("scheduler", 8, 16);
  const Duration autoscaler = MeasureRecovery("autoscaler", 4, 4);
  return SmokeVerdict(rs >= 0 && sched >= 0 && autoscaler >= 0,
                      "hard invalidation (crash-restart handshakes)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  std::vector<Row> rows;
  for (int pods : kScales) {
    rows.push_back(
        Row{"replicaset", pods, MeasureRecovery("replicaset", 80, pods)});
  }
  for (int nodes : kScales) {  // 5 pods per node
    const kd::Duration d = MeasureRecovery("scheduler", nodes, nodes * 5);
    rows.push_back(Row{"scheduler", nodes, d});
  }
  for (const char* which : {"autoscaler", "deployment"}) {
    rows.push_back(Row{which, 0, MeasureRecovery(which, 20, 100)});
  }
  PrintFigure15(rows);
  return 0;
}
