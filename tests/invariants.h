// The §4.4 invariant battery a quiescent Kd cluster must satisfy, shared
// by every test that closes a run with it: the property walk
// (property_test.cc) and the crash-point sweep (crashpoint/scenario.h).
// Each caller asserts its own extra checks after this battery.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "model/objects.h"
#include "sim/engine.h"

namespace kd::invariants {

// Checks, on a cluster of `num_nodes` kubelets that has quiesced with
// `function` converged:
//   KdSafety — a predicate that holds at a suffix holds upstream: every
//     pod a Kubelet runs is known, with the same binding, to the
//     Scheduler and the ReplicaSet controller;
//   Uniqueness — no pod is claimed by two Kubelets;
//   tombstones drained — every termination intent has settled;
//   InformerReconvergence — the informer-synced caches hold exactly the
//     server's committed state (same keys, same resource versions):
//     relist diffing after any outage lost nothing and synthesized
//     nothing extra;
//   EndpointsConvergence — the KubeProxy routing table equals the
//     Running pod IPs the API server publishes;
//   LaneSilence — no event of the run touched state owned by another
//     component instance's lane (sim/lane_checker.h).
inline void CheckQuiescentInvariants(cluster::Cluster& cluster, int num_nodes,
                                     const std::string& function) {
  using model::ApiObject;
  using model::kKindPod;
  const auto& sched_cache = cluster.scheduler().pod_cache();
  const auto& rs_cache = cluster.replicaset_controller().pod_cache();
  std::map<std::string, int> claims;
  for (int k = 0; k < num_nodes; ++k) {
    for (const ApiObject* pod : cluster.kubelet(k).cache().List(kKindPod)) {
      const std::string key = pod->Key();
      ASSERT_EQ(++claims[key], 1) << key << " claimed by two kubelets";
      // Suffix predicate: "pod X runs on node k" — must hold upstream.
      const ApiObject* at_sched = sched_cache.Get(key);
      ASSERT_NE(at_sched, nullptr)
          << key << " at kubelet " << k << " unknown to scheduler";
      EXPECT_EQ(model::GetNodeName(*at_sched), cluster::Cluster::NodeName(k));
      const ApiObject* at_rs = rs_cache.Get(key);
      ASSERT_NE(at_rs, nullptr)
          << key << " at kubelet " << k << " unknown to RS controller";
      EXPECT_EQ(model::GetNodeName(*at_rs), cluster::Cluster::NodeName(k));
    }
  }
  EXPECT_EQ(cluster.replicaset_controller().tombstone_count(), 0u);
  EXPECT_EQ(cluster.scheduler().tombstone_count(), 0u);
  const auto& ep_cache = cluster.endpoints_controller().cache();
  for (const std::string& kind :
       {std::string(model::kKindService), std::string(kKindPod)}) {
    const std::map<std::string, std::uint64_t> truth =
        cluster.apiserver().VersionMap(kind);
    const std::vector<const ApiObject*> view = ep_cache.List(kind);
    ASSERT_EQ(view.size(), truth.size())
        << "endpoints informer cache diverged for " << kind;
    for (const ApiObject* obj : view) {
      auto it = truth.find(obj->Key());
      ASSERT_NE(it, truth.end()) << obj->Key() << " not on the server";
      EXPECT_EQ(obj->resource_version, it->second) << obj->Key();
    }
  }
  const std::vector<std::string> want = cluster.ReadyPodAddresses(function);
  const std::vector<std::string> got =
      cluster.kube_proxy().AddressesFor(function);
  EXPECT_EQ(std::set<std::string>(got.begin(), got.end()),
            std::set<std::string>(want.begin(), want.end()))
      << "KubeProxy routing table diverged from ready pods";
  const sim::LaneChecker& lanes = cluster.engine().lane_checker();
  EXPECT_EQ(lanes.total_conflicts(), 0u) << lanes.FormatReport();
}

}  // namespace kd::invariants
