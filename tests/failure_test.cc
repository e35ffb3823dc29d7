// Failure-injection tests for the hierarchical write-back cache:
// the two anomalies of §4.1 (regression tests that KubeDirect's design
// avoids them), crash-restart of every controller, partitions with
// autonomous recovery (§4.2), synchronous preemption and node
// cancellation (§4.3), eviction-driven replacement, and K8s-mode
// Kubelet restarts, one during a long API-server outage.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "model/objects.h"

namespace kd::cluster {
namespace {

using controllers::Mode;
using model::ApiObject;
using model::kKindPod;

class KdFailureTest : public ::testing::Test {
 protected:
  std::unique_ptr<Cluster> MakeCluster(int nodes,
                                       int cancel_after_failures = 0) {
    ClusterConfig config = ClusterConfig::Kd(nodes);
    config.realistic_pod_template = false;
    config.scheduler.cancel_after_failures = cancel_after_failures;
    auto cluster = std::make_unique<Cluster>(engine_, std::move(config));
    cluster->Boot();
    return cluster;
  }

  // Scales fn to n and waits for readiness.
  void ScaleAndWait(Cluster& cluster, int n) {
    cluster.ScaleTo("fn", n);
    ASSERT_TRUE(cluster.RunUntil(
        [&] { return cluster.ReadyPodCount("fn") == std::size_t(n); },
        Seconds(120)))
        << "ready=" << cluster.ReadyPodCount("fn") << " want=" << n;
  }

  sim::Engine engine_;
};

// Anomaly #1 (§4.1): a Kubelet evicts a pod while disconnected from the
// Scheduler; after reconnecting, the pod must NOT be resurrected —
// instead the upstream recreates a *new* replica.
TEST_F(KdFailureTest, EvictionDuringPartitionIsNotResurrected) {
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 4);

  // Find a pod on node-0000 and record the name set.
  std::string victim;
  std::set<std::string> before_names;
  for (const ApiObject* pod : cluster->apiserver().PeekAll(kKindPod)) {
    before_names.insert(pod->name);
    if (model::GetNodeName(*pod) == Cluster::NodeName(0)) victim = pod->Key();
  }
  ASSERT_FALSE(victim.empty());

  // Partition Scheduler <-> Kubelet-0, evict during the partition.
  cluster->network().Partition(controllers::Addresses::Scheduler(),
                               controllers::Addresses::Kubelet(
                                   Cluster::NodeName(0)));
  engine_.RunFor(Milliseconds(50));
  cluster->kubelet_by_node(Cluster::NodeName(0))->Evict(victim);
  engine_.RunFor(Milliseconds(100));

  cluster->network().Heal(controllers::Addresses::Scheduler(),
                          controllers::Addresses::Kubelet(
                              Cluster::NodeName(0)));
  // Convergence: back to 4 ready pods...
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 4; }, Seconds(120)));
  // ...but the victim is gone for good (Terminating is irreversible);
  // a *new* pod name appeared instead.
  bool victim_alive = false;
  bool new_pod = false;
  for (const ApiObject* pod : cluster->apiserver().PeekAll(kKindPod)) {
    if (pod->Key() == victim) victim_alive = true;
    if (!before_names.count(pod->name)) new_pod = true;
  }
  EXPECT_FALSE(victim_alive) << "evicted pod was resurrected (Anomaly #1)";
  EXPECT_TRUE(new_pod) << "no replacement was created";
}

// Anomaly #2 (§4.1): the Scheduler crash-restarts while one Kubelet is
// unreachable. The pod on the unreachable node must not end up bound
// to two nodes at once.
TEST_F(KdFailureTest, SchedulerCrashWithPartitionedKubeletNoDoublePlacement) {
  auto cluster = MakeCluster(2, /*cancel_after_failures=*/3);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 2);

  // Partition kubelet-0 from the scheduler, then crash the scheduler.
  cluster->network().Partition(controllers::Addresses::Scheduler(),
                               controllers::Addresses::Kubelet(
                                   Cluster::NodeName(0)));
  engine_.RunFor(Milliseconds(50));
  cluster->scheduler().Crash();
  engine_.RunFor(Milliseconds(50));
  cluster->scheduler().Restart();

  // Give the system time: scheduler recovers from kubelet-1, the RS
  // controller re-handshakes, the unreachable node gets cancelled, its
  // pods are drained and replaced.
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 2; }, Seconds(240)))
      << "ready=" << cluster->ReadyPodCount("fn");

  // Invariant: no pod object is simultaneously claimed Running by two
  // kubelets — every published pod's nodeName matches exactly one
  // kubelet cache entry.
  for (const ApiObject* pod : cluster->apiserver().PeekAll(kKindPod)) {
    int claimants = 0;
    for (int i = 0; i < 2; ++i) {
      const auto& cache = cluster->kubelet(i).cache();
      if (cache.Get(pod->Key()) != nullptr) ++claimants;
    }
    EXPECT_LE(claimants, 1) << pod->Key() << " claimed by " << claimants;
  }

  // Heal; the cancelled node must rejoin cleanly.
  cluster->network().Heal(controllers::Addresses::Scheduler(),
                          controllers::Addresses::Kubelet(
                              Cluster::NodeName(0)));
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        return cluster->scheduler().KubeletLinkReady(Cluster::NodeName(0));
      },
      Seconds(60)));
  engine_.RunFor(Seconds(2));
  EXPECT_EQ(cluster->ReadyPodCount("fn"), 2u);
}

TEST_F(KdFailureTest, ReplicaSetControllerCrashRecovers) {
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 4);

  cluster->replicaset_controller().Crash();
  engine_.RunFor(Milliseconds(100));
  cluster->replicaset_controller().Restart();

  // Recover mode: the RS controller re-learns all 4 pods from the
  // Scheduler. The autoscaler re-sends the desired scale (level
  // triggered) once the links re-handshake.
  cluster->ScaleTo("fn", 4);  // platform re-issuing its last decision
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        return cluster->ReadyPodCount("fn") == 4 &&
               cluster->replicaset_controller().OwnedPodCount("fn-v1") == 4;
      },
      Seconds(120)));
  // No duplicates were created: exactly 4 pods exist.
  EXPECT_EQ(cluster->apiserver().PeekAll(kKindPod).size(), 4u);
}

TEST_F(KdFailureTest, SchedulerCrashRecoversPodsFromKubelets) {
  auto cluster = MakeCluster(4);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 8);

  cluster->scheduler().Crash();
  engine_.RunFor(Milliseconds(100));
  cluster->scheduler().Restart();

  // Recover-mode handshakes with all kubelets rebuild the pod view and
  // the allocation ledger.
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        return cluster->scheduler().pod_cache().VisibleCount(kKindPod) == 8;
      },
      Seconds(120)));
  std::int64_t total = 0;
  for (int i = 0; i < 4; ++i) {
    total += cluster->scheduler().AllocatedCpuOn(Cluster::NodeName(i));
  }
  EXPECT_EQ(total, 8 * 250);
  engine_.RunFor(Seconds(2));
  EXPECT_EQ(cluster->ReadyPodCount("fn"), 8u);  // nothing was disturbed
}

TEST_F(KdFailureTest, KubeletCrashLosesPendingKeepsPublished) {
  auto cluster = MakeCluster(1);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 2);

  // Published pods (containers) survive the kubelet restart; it
  // re-adopts them from the API server (the TLA+ DoKletCrash rule).
  cluster->kubelet(0).Crash();
  engine_.RunFor(Milliseconds(100));
  cluster->kubelet(0).Restart();
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->kubelet(0).running_pods() == 2; }, Seconds(60)));
  EXPECT_EQ(cluster->ReadyPodCount("fn"), 2u);
}

TEST_F(KdFailureTest, PartitionDuringScaleOutConvergesAfterHeal) {
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  // Partition one kubelet mid-scale-out.
  cluster->ScaleTo("fn", 8);
  engine_.RunFor(Milliseconds(30));
  cluster->network().Partition(controllers::Addresses::Scheduler(),
                               controllers::Addresses::Kubelet(
                                   Cluster::NodeName(0)));
  engine_.RunFor(Seconds(1));
  cluster->network().Heal(controllers::Addresses::Scheduler(),
                          controllers::Addresses::Kubelet(
                              Cluster::NodeName(0)));
  // Liveness (§4.4): once connectivity holds long enough, the desired
  // state is reached.
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 8; }, Seconds(240)))
      << "ready=" << cluster->ReadyPodCount("fn");
}

TEST_F(KdFailureTest, DownscaleSurvivesSchedulerCrash) {
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 6);

  cluster->ScaleTo("fn", 2);
  engine_.RunFor(Milliseconds(2));  // tombstones at RS, maybe in flight
  cluster->scheduler().Crash();
  engine_.RunFor(Milliseconds(50));
  cluster->scheduler().Restart();

  // Tombstones at the RS controller survive (its session continues) and
  // are re-replicated after the handshake (CR-style fast-forward).
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 2; }, Seconds(240)))
      << "ready=" << cluster->ReadyPodCount("fn");
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->replicaset_controller().tombstone_count() == 0; },
      Seconds(60)));
}

TEST_F(KdFailureTest, SynchronousPreemptionCompletesViaInvalidation) {
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 4);

  std::string victim;
  for (const ApiObject* pod : cluster->apiserver().PeekAll(kKindPod)) {
    victim = pod->Key();
    break;
  }
  ASSERT_FALSE(victim.empty());

  Status result = InternalError("never");
  Time done_at = -1;
  const Time start = engine_.now();
  cluster->scheduler().Preempt(victim, [&](Status s) {
    result = s;
    done_at = engine_.now();
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return done_at >= 0; }, Seconds(30)));
  EXPECT_TRUE(result.ok()) << result.ToString();
  // §6.3: preemption is two Kd hops + kubelet processing — an order of
  // magnitude under the 10-35 ms API-call path, but nonzero.
  EXPECT_LT(done_at - start, Milliseconds(20));
  EXPECT_GT(done_at - start, Microseconds(50));
  // The victim is really gone.
  engine_.RunFor(Seconds(1));
  EXPECT_EQ(cluster->apiserver().Peek(kKindPod, victim.substr(4)), nullptr);
}

TEST_F(KdFailureTest, PreemptUnknownPodFails) {
  auto cluster = MakeCluster(1);
  cluster->RegisterFunction("fn");
  Status result = OkStatus();
  cluster->scheduler().Preempt("Pod/ghost", [&](Status s) { result = s; });
  engine_.RunFor(Milliseconds(10));
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
}

TEST_F(KdFailureTest, NodeCancellationDrainsAndReplaces) {
  auto cluster = MakeCluster(2, /*cancel_after_failures=*/3);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 4);

  // Hard-partition node 0; the scheduler's reconnect attempts fail and
  // it cancels the node: marks it invalid, assumes the pods dead,
  // invalidates them upstream; the RS controller replaces them on
  // node 1.
  cluster->network().Partition(controllers::Addresses::Scheduler(),
                               controllers::Addresses::Kubelet(
                                   Cluster::NodeName(0)));
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        return cluster->ReadyPodCount("fn") == 4 &&
               cluster->scheduler().AllocatedCpuOn(Cluster::NodeName(0)) == 0;
      },
      Seconds(240)))
      << "ready=" << cluster->ReadyPodCount("fn");
  EXPECT_EQ(cluster->metrics().GetCount("nodes_cancelled"), 1);

  // The kubelet saw the invalid mark through the API server and drained
  // its (now orphaned) KubeDirect pods.
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->kubelet(0).running_pods() == 0; }, Seconds(60)));

  // Heal: the node rejoins, the invalid mark is lifted.
  cluster->network().Heal(controllers::Addresses::Scheduler(),
                          controllers::Addresses::Kubelet(
                              Cluster::NodeName(0)));
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        const ApiObject* node =
            cluster->apiserver().Peek(model::kKindNode, Cluster::NodeName(0));
        return node != nullptr && !model::IsNodeInvalid(*node);
      },
      Seconds(120)));
  // New pods can land there again.
  cluster->ScaleTo("fn", 60);
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        return cluster->scheduler().AllocatedCpuOn(Cluster::NodeName(0)) > 0;
      },
      Seconds(120)));
}

TEST_F(KdFailureTest, EvictionTriggersReplacement) {
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 3);
  std::string victim;
  for (const ApiObject* pod : cluster->apiserver().PeekAll(kKindPod)) {
    victim = pod->Key();
    break;
  }
  cluster->kubelet_by_node(
             model::GetNodeName(*cluster->apiserver().Peek(
                 kKindPod, victim.substr(4))))
      ->Evict(victim);
  // The invalidation flows up to the RS controller, which recreates.
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        return cluster->ReadyPodCount("fn") == 3 &&
               cluster->apiserver().Peek(kKindPod, victim.substr(4)) ==
                   nullptr;
      },
      Seconds(120)));
}

TEST_F(KdFailureTest, AutoscalerCrashIsHarmless) {
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 3);
  cluster->autoscaler().Crash();
  engine_.RunFor(Milliseconds(100));
  EXPECT_EQ(cluster->ReadyPodCount("fn"), 3u);  // running pods unaffected
  cluster->autoscaler().Restart();
  // The platform re-evaluates its policy and re-issues the scale.
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->autoscaler().link_ready(); }, Seconds(60)));
  cluster->ScaleTo("fn", 5);
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 5; }, Seconds(120)));
}

// KubeProxy misses every address-list update sent while it is down.
// After its restart the Endpoints controller's on_ready re-enqueues
// every Service, so the routing table relearns the current addresses
// (level-triggered repair of dropped forwards, §4.1).
TEST_F(KdFailureTest, KubeProxyRelearnsAddressesAfterRestart) {
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 2);

  cluster->kube_proxy().Crash();
  ScaleAndWait(*cluster, 4);  // the address list changes while it is down
  cluster->kube_proxy().Restart();

  auto as_set = [](const std::vector<std::string>& v) {
    return std::set<std::string>(v.begin(), v.end());
  };
  const std::set<std::string> want = as_set(cluster->ReadyPodAddresses("fn"));
  ASSERT_EQ(want.size(), 4u);
  EXPECT_TRUE(cluster->RunUntil(
      [&] { return as_set(cluster->kube_proxy().AddressesFor("fn")) == want; },
      Seconds(60)))
      << "KubeProxy routing table never relearned the ready pods";
}

TEST_F(KdFailureTest, MultiPointFailureEventuallyConverges) {
  // Downstream-first multi-failure: crash the scheduler AND the RS
  // controller, plus a transient partition. The handshake protocol's
  // downstream-first recovery (§4.2) sorts it out.
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  ScaleAndWait(*cluster, 4);

  cluster->scheduler().Crash();
  cluster->replicaset_controller().Crash();
  engine_.RunFor(Milliseconds(20));
  cluster->scheduler().Restart();
  engine_.RunFor(Milliseconds(20));
  cluster->replicaset_controller().Restart();
  cluster->ScaleTo("fn", 4);  // level-triggered upstream re-issues

  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        return cluster->ReadyPodCount("fn") == 4 &&
               cluster->replicaset_controller().OwnedPodCount("fn-v1") == 4;
      },
      Seconds(240)))
      << "ready=" << cluster->ReadyPodCount("fn");
  EXPECT_EQ(cluster->apiserver().PeekAll(kKindPod).size(), 4u);
}

// A K8s Kubelet restarted while the API server is down must re-adopt
// its pods once the server returns, even when the outage outlasts the
// client's retry budget (about 75 s: 6 attempts with a 10 s deadline
// each, plus backoff). Its watch never broke, so no relist brings the
// pods back; only the Kubelet's own adopt list can.
TEST(K8sFailureTest, KubeletRestartedDuringLongOutageReadoptsPods) {
  sim::Engine engine;
  ClusterConfig config = ClusterConfig::K8s(2);
  config.realistic_pod_template = false;
  Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  cluster.ScaleTo("fn", 4);
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 4; }, Seconds(120)));

  cluster.kubelet(0).Crash();
  cluster.apiserver().Crash();
  cluster.kubelet(0).Restart();
  engine.RunFor(Seconds(120));
  cluster.apiserver().Restart();
  engine.RunFor(Seconds(60));

  std::size_t bound = 0;
  for (const ApiObject* pod : cluster.apiserver().PeekAll(kKindPod)) {
    if (model::GetNodeName(*pod) == Cluster::NodeName(0)) ++bound;
  }
  EXPECT_GT(bound, 0u);
  EXPECT_EQ(cluster.kubelet(0).running_pods(), bound);
}

// The containers of a K8s Kubelet's published pods outlive its
// restart, as in Kd mode: it re-adopts them as running instead of
// cold-starting their sandboxes again under new IPs.
TEST(K8sFailureTest, KubeletRestartKeepsPublishedSandboxes) {
  sim::Engine engine;
  ClusterConfig config = ClusterConfig::K8s(2);
  config.realistic_pod_template = false;
  Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  cluster.ScaleTo("fn", 4);
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 4; }, Seconds(120)));
  auto node0_ips = [&cluster] {
    std::set<std::string> ips;
    for (const ApiObject* pod : cluster.apiserver().PeekAll(kKindPod)) {
      if (model::GetNodeName(*pod) == Cluster::NodeName(0)) {
        ips.insert(model::GetPodIp(*pod));
      }
    }
    return ips;
  };
  const std::set<std::string> before = node0_ips();
  ASSERT_FALSE(before.empty());
  ASSERT_EQ(cluster.metrics().GetCount("sandboxes_started"), 4);

  cluster.kubelet(0).Crash();
  cluster.kubelet(0).Restart();
  engine.RunFor(Seconds(30));

  EXPECT_EQ(cluster.metrics().GetCount("sandboxes_started"), 4);
  EXPECT_EQ(node0_ips(), before);
  EXPECT_EQ(cluster.kubelet(0).running_pods(), before.size());
  EXPECT_EQ(cluster.ReadyPodCount("fn"), 4u);
}

}  // namespace
}  // namespace kd::cluster
