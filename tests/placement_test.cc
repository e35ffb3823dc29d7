// Placement equivalence for the Scheduler's allocation index.
//
// PickNode walks an index ordered by (cpu_allocated, node name) instead
// of scanning every node. The index is derived state: every node-state
// creation and allocation change must keep it in step, or the walk
// picks a node a full scan would not. These walks drive a small Kd
// cluster with nodes of different capacities through random binds,
// deletes, node cancels, reclaim drains, Kubelet link drops and
// Scheduler crash/restarts; after every step the node PickNode chooses
// must equal a brute-force least-allocated scan (ties to the lowest
// name) over the Scheduler's observable node state. That scan, kept
// here, is the reference implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "model/objects.h"

namespace kd::cluster {
namespace {

using model::ApiObject;
using model::kKindPod;

// Unequal on purpose: small nodes fill up while larger ones still
// have room, so the walk must skip infeasible low-allocation entries.
constexpr std::int64_t kCapacities[] = {4000, 1000, 2500, 4000, 500};
constexpr int kNodes = static_cast<int>(std::size(kCapacities));
// Pod sizes the pick is checked for: the function's own, one that fits
// only the larger nodes, and one that fits nowhere.
constexpr std::int64_t kPodSizes[] = {250, 1000, 2500, 5000};

class PlacementWalk {
 public:
  explicit PlacementWalk(std::uint64_t seed) : rng_(seed) {
    ClusterConfig config = ClusterConfig::Kd(kNodes);
    config.realistic_pod_template = false;
    config.scheduler.cancel_after_failures = 3;
    cluster_ = std::make_unique<Cluster>(engine_, std::move(config));
    cluster_->Boot();
    for (int k = 0; k < kNodes; ++k) {
      ApiObject node = *cluster_->apiserver().Peek(model::kKindNode,
                                                   Cluster::NodeName(k));
      model::SetCpuMilli(node, kCapacities[k]);
      cluster_->apiserver().SeedObject(std::move(node));
    }
    cluster_->RegisterFunction("fn");
    engine_.RunFor(Milliseconds(200));
  }

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) {
      Step();
      ExpectPickMatchesScan();
      if (::testing::Test::HasFailure()) return;
    }
    // Not vacuous: the walk placed pods and still found room for some.
    EXPECT_GT(placed_checks_, 0);
  }

 private:
  // The full scan the index replaced: least-allocated feasible node,
  // ties to the lowest name (NodeName order is name order).
  std::string ScanPick(std::int64_t cpu_milli) const {
    const controllers::Scheduler& s = cluster_->scheduler();
    std::string best;
    std::int64_t best_allocated = 0;
    for (int k = 0; k < kNodes; ++k) {
      const std::string name = Cluster::NodeName(k);
      const std::int64_t capacity = s.CpuCapacityOf(name);
      if (s.IsNodeCancelled(name) || s.IsNodeDraining(name) || capacity <= 0) {
        continue;
      }
      if (!s.KubeletLinkReady(name)) continue;
      const std::int64_t allocated = s.AllocatedCpuOn(name);
      if (allocated + cpu_milli > capacity) continue;
      if (best.empty() || allocated < best_allocated) {
        best = name;
        best_allocated = allocated;
      }
    }
    return best;
  }

  void ExpectPickMatchesScan() {
    for (const std::int64_t cpu : kPodSizes) {
      const std::string picked = cluster_->scheduler().PickNode(cpu);
      EXPECT_EQ(picked, ScanPick(cpu))
          << "pod of " << cpu << "m at t=" << engine_.now();
      if (!picked.empty() && AnyAllocated()) ++placed_checks_;
    }
  }

  bool AnyAllocated() const {
    for (int k = 0; k < kNodes; ++k) {
      if (cluster_->scheduler().AllocatedCpuOn(Cluster::NodeName(k)) > 0) {
        return true;
      }
    }
    return false;
  }

  void SetReclaim(int k, bool marked) {
    ApiObject node = *cluster_->apiserver().Peek(model::kKindNode,
                                                 Cluster::NodeName(k));
    std::int64_t at_ms = 0;
    if (marked) {
      at_ms = static_cast<std::int64_t>(ToMillis(engine_.now() + Minutes(10)));
    }
    model::SetNodeReclaimAtMs(node, at_ms);
    cluster_->apiserver().SeedObject(std::move(node));
  }

  std::int64_t RandomInt(std::uint64_t n) {
    return static_cast<std::int64_t>(rng_.UniformInt(n));
  }

  void Step() {
    const int k = static_cast<int>(RandomInt(kNodes));
    const std::string node = Cluster::NodeName(k);
    const std::string scheduler = controllers::Addresses::Scheduler();
    const std::string kubelet = controllers::Addresses::Kubelet(node);
    switch (RandomInt(10)) {
      case 0:
      case 1:  // bind (or, on a lower target, delete) through scaling
        cluster_->ScaleTo("fn", RandomInt(50));
        break;
      case 2: {  // delete: evict a running pod at its Kubelet
        const std::vector<const ApiObject*> pods =
            cluster_->kubelet(k).cache().List(kKindPod);
        if (!pods.empty()) {
          const ApiObject* victim = pods[rng_.UniformInt(pods.size())];
          cluster_->kubelet(k).Evict(victim->Key());
        }
        break;
      }
      case 3:  // cancel a node
        cluster_->scheduler().CancelNode(node);
        break;
      case 4:  // reclaim notice on / off: drains the node
        SetReclaim(k, RandomInt(2) == 0);
        break;
      case 5:  // Kubelet link drop (heals on a later step)
        cluster_->network().Partition(scheduler, kubelet);
        break;
      case 6:
        cluster_->network().Heal(scheduler, kubelet);
        break;
      case 7:  // Kubelet crash + restart: the link re-handshakes
        cluster_->kubelet(k).Crash();
        cluster_->kubelet(k).Restart();
        break;
      case 8:  // Scheduler crash + restart: the index is rebuilt
        cluster_->scheduler().Crash();
        cluster_->scheduler().Restart();
        break;
      default:  // advance time
        engine_.RunFor(Milliseconds(1 + RandomInt(400)));
        break;
    }
    engine_.RunFor(Milliseconds(RandomInt(50)));
  }

  sim::Engine engine_;
  Rng rng_;
  std::unique_ptr<Cluster> cluster_;
  int placed_checks_ = 0;
};

class PlacementEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacementEquivalenceTest, IndexedPickEqualsFullScan) {
  PlacementWalk walk(GetParam());
  walk.Run(/*steps=*/200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace kd::cluster
