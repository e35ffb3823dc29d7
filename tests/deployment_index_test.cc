// ReplicaSet lookup equivalence for the Deployment controller's owner
// index.
//
// FindReplicaSet visits the ReplicaSets its owner index lists for one
// Deployment instead of scanning every ReplicaSet in the cache. The
// index is derived state: every visible cache change must keep it in
// step, and a crash must reset it because the cache's Clear fires no
// handlers. These walks drive a small cluster, in both modes, through
// ReplicaSet creates, updates (new revision, new owner) and deletes
// and Deployment revision bumps, all through the API server, plus
// scale steps, while the Deployment controller crashes and restarts.
// After every step, for every owner and revision, FindReplicaSet must
// return what a linear scan of the controller's cache returns: the
// first visible ReplicaSet, in key order, with that owner and
// revision. That scan, kept here, is the reference implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apiserver/client.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "model/objects.h"

namespace kd::cluster {
namespace {

using model::ApiObject;
using model::kKindDeployment;
using model::kKindReplicaSet;

// Three registered functions plus an owner no Deployment has.
const char* const kOwners[] = {"f0", "f1", "f2", "ghost"};
constexpr int kFunctions = 3;
constexpr std::int64_t kMaxRevision = 3;
// Names the walk creates ReplicaSets under, beside each function's own
// "<fn>-v1". Some sort before the functions' keys, some after.
const char* const kExtraReplicaSets[] = {"a-rs", "f0-v2", "f1-v0", "z-rs"};

class ReplicaSetLookupWalk {
 public:
  ReplicaSetLookupWalk(controllers::Mode mode, std::uint64_t seed)
      : rng_(seed) {
    ClusterConfig config = mode == controllers::Mode::kKd
                               ? ClusterConfig::Kd(2)
                               : ClusterConfig::K8s(2);
    config.realistic_pod_template = false;
    cluster_ = std::make_unique<Cluster>(engine_, std::move(config));
    cluster_->Boot();
    for (int f = 0; f < kFunctions; ++f) cluster_->RegisterFunction(kOwners[f]);
    client_ = std::make_unique<apiserver::ApiClient>(
        engine_, cluster_->apiserver(), "walk", 1e6, 1e6);
    engine_.RunFor(Milliseconds(200));
  }

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) {
      Step();
      ExpectLookupMatchesScan();
      if (::testing::Test::HasFailure()) return;
    }
    // Not vacuous: lookups found ReplicaSets, and some of them were not
    // the first of their owner's in key order.
    EXPECT_GT(found_, 0);
    EXPECT_GT(found_past_first_, 0);
  }

 private:
  const controllers::DeploymentController& controller() {
    return cluster_->deployment_controller();
  }

  // The full scan the index replaced.
  const ApiObject* ScanFind(const ApiObject& deployment) {
    const std::int64_t revision = model::GetRevision(deployment);
    for (const ApiObject* rs : controller().cache().List(kKindReplicaSet)) {
      if (model::GetOwnerName(*rs) == deployment.name &&
          model::GetRevision(*rs) == revision) {
        return rs;
      }
    }
    return nullptr;
  }

  void ExpectLookupMatchesScan() {
    for (const char* owner : kOwners) {
      for (std::int64_t revision = 1; revision <= kMaxRevision; ++revision) {
        ApiObject deployment;
        deployment.kind = kKindDeployment;
        deployment.name = owner;
        model::SetRevision(deployment, revision);
        const ApiObject* found = controller().FindReplicaSet(deployment);
        EXPECT_EQ(found, ScanFind(deployment))
            << owner << " revision " << revision << " at t="
            << engine_.now() << (crashed_ ? " (crashed)" : "");
        if (found == nullptr) continue;
        ++found_;
        for (const ApiObject* rs : controller().cache().List(kKindReplicaSet)) {
          if (rs == found) break;
          if (model::GetOwnerName(*rs) == deployment.name) {
            ++found_past_first_;
            break;
          }
        }
      }
    }
  }

  std::int64_t RandomInt(std::uint64_t n) {
    return static_cast<std::int64_t>(rng_.UniformInt(n));
  }
  std::string RandomOwner() { return kOwners[RandomInt(std::size(kOwners))]; }
  std::int64_t RandomRevision() { return 1 + RandomInt(kMaxRevision); }

  // A ReplicaSet committed in the API server, or nullptr if none.
  const ApiObject* RandomStoredReplicaSet() {
    const std::vector<const ApiObject*> all =
        cluster_->apiserver().PeekAll(kKindReplicaSet);
    if (all.empty()) return nullptr;
    return all[rng_.UniformInt(all.size())];
  }

  void Step() {
    switch (RandomInt(10)) {
      case 0: {  // create (AlreadyExists when the name is taken)
        ApiObject rs = model::MakeReplicaSet(
            kExtraReplicaSets[RandomInt(std::size(kExtraReplicaSets))],
            RandomOwner(), RandomRevision(), /*replicas=*/0,
            model::MinimalPodTemplateSpec("walk"));
        client_->Create(std::move(rs), [](StatusOr<ApiObject>) {});
        break;
      }
      case 1:
      case 2: {  // update: new revision, new owner, or both
        const ApiObject* stored = RandomStoredReplicaSet();
        if (stored == nullptr) break;
        ApiObject rs = *stored;
        const std::int64_t what = RandomInt(3);
        if (what != 1) model::SetRevision(rs, RandomRevision());
        if (what != 0) model::SetOwner(rs, kKindDeployment, RandomOwner());
        client_->Update(std::move(rs), [](StatusOr<ApiObject>) {});
        break;
      }
      case 3: {  // delete
        const ApiObject* stored = RandomStoredReplicaSet();
        if (stored == nullptr) break;
        client_->Delete(kKindReplicaSet, stored->name, [](Status) {});
        break;
      }
      case 4: {  // bump (or reset) a Deployment's revision
        const ApiObject* stored = cluster_->apiserver().Peek(
            kKindDeployment, kOwners[RandomInt(kFunctions)]);
        if (stored == nullptr) break;
        ApiObject deployment = *stored;
        model::SetRevision(deployment, RandomRevision());
        client_->Update(std::move(deployment), [](StatusOr<ApiObject>) {});
        break;
      }
      case 5:  // scale: the controller's own Reconcile runs the lookup
        cluster_->ScaleTo(kOwners[RandomInt(kFunctions)], RandomInt(3));
        break;
      case 6:  // crash, or restart: the index is reset and rebuilt
        if (crashed_) {
          cluster_->deployment_controller().Restart();
        } else {
          cluster_->deployment_controller().Crash();
        }
        crashed_ = !crashed_;
        break;
      default:  // advance time
        engine_.RunFor(Milliseconds(1 + RandomInt(200)));
        break;
    }
    engine_.RunFor(Milliseconds(RandomInt(50)));
  }

  sim::Engine engine_;
  Rng rng_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<apiserver::ApiClient> client_;
  bool crashed_ = false;
  int found_ = 0;
  int found_past_first_ = 0;
};

class ReplicaSetLookupTest
    : public ::testing::TestWithParam<
          std::tuple<controllers::Mode, std::uint64_t>> {};

TEST_P(ReplicaSetLookupTest, IndexedLookupEqualsFullScan) {
  ReplicaSetLookupWalk walk(std::get<0>(GetParam()), std::get<1>(GetParam()));
  walk.Run(/*steps=*/300);
}

INSTANTIATE_TEST_SUITE_P(
    Walks, ReplicaSetLookupTest,
    ::testing::Combine(::testing::Values(controllers::Mode::kKd,
                                         controllers::Mode::kK8s),
                       ::testing::Range<std::uint64_t>(1, 9)),
    [](const ::testing::TestParamInfo<ReplicaSetLookupTest::ParamType>&
           param_info) {
      return std::string(controllers::ModeName(std::get<0>(param_info.param))) +
             "_seed" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace kd::cluster
