// Tests for the Kubelet's per-pod records and its restart adopt: the
// kd_materialize window (a tombstone that lands while a pod's Upsert
// is materializing), a terminate while a sandbox start is queued, the
// crash reset, a converged scale-down that leaves no record behind,
// and a K8s adopt List that must not bring back a pod deleted while
// the List was on the wire.
#include "controllers/kubelet.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "cluster/cluster.h"
#include "kubedirect/hierarchy.h"
#include "model/objects.h"
#include "net/network.h"
#include "runtime/env.h"
#include "sim/engine.h"

namespace kd::controllers {
namespace {

using model::ApiObject;
using model::kKindPod;

constexpr char kNode[] = "node-0";

// One Kd Kubelet, driven by a stand-in Scheduler: a HierarchyClient on
// the Kubelet's upstream link that forwards pods and tombstones the way
// the Scheduler does.
class KubeletRecordTest : public ::testing::Test {
 protected:
  KubeletRecordTest()
      : network_(engine_),
        cost_(Cost()),
        apiserver_(engine_, cost_),
        env_{engine_, network_, apiserver_, cost_, metrics_},
        scheduler_ep_(network_, "test.scheduler"),
        rs_(model::MakeReplicaSet("fn-v1", "fn", 1, 0,
                                  model::MinimalPodTemplateSpec("fn"))) {
    apiserver_.SeedObject(model::MakeNode(kNode, 10'000, 64 * 1024));
    apiserver_.SeedObject(rs_);
  }

  static CostModel Cost() {
    CostModel cost = CostModel::Default();
    // Far longer than a message's processing, so a tombstone sent right
    // behind a pod's Upsert lands inside that pod's window.
    cost.kd_materialize = Milliseconds(5);
    return cost;
  }

  // Starts the Kubelet (sandboxes take 100 ms, `concurrency` at a time)
  // and the stand-in Scheduler; runs until their link is ready.
  void StartKubelet(int concurrency) {
    kubelet_ = std::make_unique<Kubelet>(
        env_, Mode::kKd, kNode, SandboxParams{Milliseconds(100), concurrency});
    kubelet_->Start();
    kubedirect::HierarchyClient::Callbacks callbacks;
    callbacks.on_remove = [this](const std::string& key) {
      removed_.push_back(key);
      removed_at_.push_back(engine_.now());
    };
    scheduler_ = std::make_unique<kubedirect::HierarchyClient>(
        engine_, cost_, scheduler_ep_, Addresses::Kubelet(kNode), pods_,
        kKindPod, nullptr, std::move(callbacks));
    scheduler_->Start();
    engine_.RunFor(Seconds(1));
    ASSERT_TRUE(scheduler_->ready());
  }

  // Binds `name` to the node and forwards it: the local cache first,
  // then the pointer-compressed Upsert (§3.1).
  void SendPod(const std::string& name) {
    ApiObject pod = model::MakePodFromTemplate(name, rs_);
    model::SetNodeName(pod, kNode);
    kubedirect::KdMessage msg = kubedirect::PodCreateMessage(pod, rs_.Key());
    msg.attrs.emplace("spec.nodeName", kubedirect::KdValue::Literal(kNode));
    pods_.Upsert(std::move(pod));
    ASSERT_TRUE(scheduler_->SendUpsert(std::move(msg)));
  }

  bool Running(const std::string& name) const {
    const ApiObject* pod = kubelet_->cache().Get("Pod/" + name);
    return pod != nullptr &&
           model::GetPodPhase(*pod) == model::PodPhase::kRunning;
  }

  std::int64_t SandboxesStarted() const {
    return metrics_.GetCount("sandboxes_started");
  }

  sim::Engine engine_;
  net::Network network_;
  CostModel cost_;
  apiserver::ApiServer apiserver_;
  MetricsRecorder metrics_;
  runtime::Env env_;
  net::Endpoint scheduler_ep_;
  ApiObject rs_;
  runtime::ObjectCache pods_;  // the stand-in Scheduler's pod cache
  std::unique_ptr<Kubelet> kubelet_;
  std::unique_ptr<kubedirect::HierarchyClient> scheduler_;
  std::vector<std::string> removed_;
  std::vector<Time> removed_at_;
};

// A tombstone that lands while the pod's Upsert is materializing is
// deferred: no sandbox starts, the Kubelet answers with the removal
// once the window closes, and nothing is left of the pod.
TEST_F(KubeletRecordTest, TombstoneInsideMaterializeWindowIsAnsweredAfterIt) {
  StartKubelet(/*concurrency=*/10);
  const Time sent_at = engine_.now();
  SendPod("fn-v1-0");
  // Same batch, delivered one message-processing step after the Upsert.
  ASSERT_TRUE(scheduler_->SendTombstone("Pod/fn-v1-0"));
  engine_.RunFor(Seconds(2));

  EXPECT_EQ(SandboxesStarted(), 0);
  ASSERT_EQ(removed_, std::vector<std::string>{"Pod/fn-v1-0"});
  // An unknown pod is answered at once; a deferred one only after the
  // window.
  EXPECT_GE(removed_at_[0] - sent_at, cost_.kd_materialize);
  EXPECT_EQ(kubelet_->cache().Get("Pod/fn-v1-0"), nullptr);
  EXPECT_EQ(kubelet_->pod_records(), 0u);
}

// A pod terminated while its start waits behind sandbox_.concurrency
// never starts, and its slot goes to the next pod in the queue.
TEST_F(KubeletRecordTest, TerminateWhileQueuedNeverStarts) {
  StartKubelet(/*concurrency=*/1);
  SendPod("fn-v1-0");
  SendPod("fn-v1-1");
  SendPod("fn-v1-2");
  engine_.RunFor(Milliseconds(20));  // all bound; 0 starts, 1 and 2 wait
  EXPECT_EQ(kubelet_->pod_records(), 3u);
  ASSERT_TRUE(scheduler_->SendTombstone("Pod/fn-v1-1"));
  // fn-v1-0 is ready at about 105 ms; fn-v1-2 takes the freed slot and
  // is ready 100 ms later, not 200 ms later behind a start of fn-v1-1.
  engine_.RunFor(Milliseconds(250));

  EXPECT_EQ(removed_, std::vector<std::string>{"Pod/fn-v1-1"});
  EXPECT_TRUE(Running("fn-v1-0"));
  EXPECT_TRUE(Running("fn-v1-2"));
  EXPECT_EQ(kubelet_->cache().Get("Pod/fn-v1-1"), nullptr);
  EXPECT_EQ(SandboxesStarted(), 2);
  // Each running pod keeps one record: published.
  engine_.RunFor(Seconds(1));
  EXPECT_EQ(kubelet_->pod_records(), 2u);
}

// A crash clears every record; the restart's adopt brings back a record
// only for the published pod, whose container outlived the crash.
TEST_F(KubeletRecordTest, CrashClearsEveryRecord) {
  StartKubelet(/*concurrency=*/1);
  SendPod("fn-v1-0");
  SendPod("fn-v1-1");
  engine_.RunFor(Milliseconds(150));  // 0 published, 1 starting
  ASSERT_TRUE(Running("fn-v1-0"));
  SendPod("fn-v1-2");
  ASSERT_TRUE(scheduler_->SendTombstone("Pod/fn-v1-2"));
  engine_.RunFor(Milliseconds(2));  // 2 materializing and condemned
  EXPECT_EQ(kubelet_->pod_records(), 3u);

  kubelet_->Crash();
  EXPECT_EQ(kubelet_->pod_records(), 0u);
  engine_.RunFor(Seconds(1));  // the stale timers find nothing to settle
  EXPECT_EQ(kubelet_->pod_records(), 0u);
  EXPECT_TRUE(removed_.empty());

  kubelet_->Restart();
  engine_.RunFor(Seconds(1));
  EXPECT_TRUE(Running("fn-v1-0"));
  EXPECT_EQ(kubelet_->pod_records(), 1u);
}

// Scaling up and back down to zero leaves no per-pod record on any
// Kubelet once both converge, in either mode.
class KubeletScaleDownTest : public ::testing::TestWithParam<Mode> {};

TEST_P(KubeletScaleDownTest, ConvergedScaleDownLeavesNoRecords) {
  constexpr int kNodes = 3;
  sim::Engine engine;
  cluster::ClusterConfig config = GetParam() == Mode::kKd
                                      ? cluster::ClusterConfig::Kd(kNodes)
                                      : cluster::ClusterConfig::K8s(kNodes);
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  cluster.ScaleTo("fn", 9);
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 9; }, Seconds(120)));
  std::size_t records = 0;
  for (int i = 0; i < kNodes; ++i) records += cluster.kubelet(i).pod_records();
  EXPECT_EQ(records, 9u);  // one published record per running pod

  cluster.ScaleTo("fn", 0);
  auto drained = [&] {
    if (!cluster.apiserver().PeekAll(kKindPod).empty()) return false;
    for (int i = 0; i < kNodes; ++i) {
      if (cluster.kubelet(i).running_pods() != 0) return false;
    }
    return true;
  };
  ASSERT_TRUE(cluster.RunUntil(drained, Seconds(120)));
  engine.RunFor(Seconds(5));
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(cluster.kubelet(i).pod_records(), 0u) << "kubelet " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KubeletScaleDownTest,
                         ::testing::Values(Mode::kKd, Mode::kK8s),
                         [](const ::testing::TestParamInfo<Mode>& param) {
                           return param.param == Mode::kKd ? "Kd" : "K8s";
                         });

// A restarted K8s Kubelet arms its watch, then lists every pod to adopt
// the ones bound to it. With realistic templates the reply takes tens
// of milliseconds on the wire after its snapshot; a pod deleted in that
// time reaches the Kubelet as a watch delete first and must not come
// back when the older snapshot lands.
TEST(KubeletAdoptTest, PodDeletedWhileAdoptListIsOnTheWireStaysGone) {
  sim::Engine engine;
  cluster::ClusterConfig config = cluster::ClusterConfig::K8s(2);
  config.realistic_pod_template = true;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  cluster.ScaleTo("fn", 20);
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 20; }, Seconds(300)));
  std::string victim;
  for (const ApiObject* pod : cluster.apiserver().PeekAll(kKindPod)) {
    if (model::GetNodeName(*pod) == cluster::Cluster::NodeName(0)) {
      victim = pod->name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());

  Kubelet& kubelet = cluster.kubelet(0);
  kubelet.Crash();
  kubelet.Restart();
  // The List's snapshot is taken about 1 ms in; 20 pods of ~17 KB take
  // about 40 ms more to serialize. The delete commits in between.
  engine.RunFor(Milliseconds(5));
  apiserver::ApiClient other(engine, cluster.apiserver(), "other", 1e6, 1e6);
  bool deleted = false;
  other.Delete(kKindPod, victim, [&](Status status) { deleted = status.ok(); });
  engine.RunFor(Seconds(5));
  ASSERT_TRUE(deleted);

  EXPECT_EQ(kubelet.cache().Get("Pod/" + victim), nullptr);
  std::size_t bound = 0;
  for (const ApiObject* pod : cluster.apiserver().PeekAll(kKindPod)) {
    if (model::GetNodeName(*pod) == cluster::Cluster::NodeName(0)) ++bound;
  }
  EXPECT_EQ(kubelet.running_pods(), bound);
  EXPECT_EQ(kubelet.pod_records(), bound);
}

}  // namespace
}  // namespace kd::controllers
