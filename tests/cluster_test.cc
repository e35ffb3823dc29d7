// Integration tests: the full narrow waist assembled, exercised end to
// end in both K8s and Kd modes — upscale, downscale, Kd speedup,
// ownership guard, multi-function scaling.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "model/objects.h"

namespace kd::cluster {
namespace {

using controllers::Mode;

class ClusterTest : public ::testing::TestWithParam<Mode> {
 protected:
  std::unique_ptr<Cluster> MakeCluster(int nodes) {
    ClusterConfig config;
    config.mode = GetParam();
    config.num_nodes = nodes;
    config.realistic_pod_template = false;  // logic-focused tests
    auto cluster = std::make_unique<Cluster>(engine_, std::move(config));
    cluster->Boot();
    return cluster;
  }

  sim::Engine engine_;
};

TEST_P(ClusterTest, BootEstablishesControlPlane) {
  auto cluster = MakeCluster(4);
  if (GetParam() == Mode::kKd) {
    EXPECT_TRUE(cluster->autoscaler().link_ready());
    EXPECT_TRUE(cluster->deployment_controller().link_ready());
    EXPECT_TRUE(cluster->replicaset_controller().link_ready());
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(cluster->scheduler().KubeletLinkReady(Cluster::NodeName(i)));
    }
  }
  EXPECT_EQ(cluster->TotalReadyPods(), 0u);
}

TEST_P(ClusterTest, ScaleUpProducesReadyPods) {
  auto cluster = MakeCluster(4);
  cluster->RegisterFunction("fn");
  cluster->ScaleTo("fn", 8);
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 8; }, Seconds(120)))
      << "only " << cluster->ReadyPodCount("fn") << " pods ready";
  // Pods landed on real nodes with capacity accounting.
  std::int64_t total_alloc = 0;
  for (int i = 0; i < 4; ++i) {
    total_alloc += cluster->scheduler().AllocatedCpuOn(Cluster::NodeName(i));
  }
  EXPECT_EQ(total_alloc, 8 * 250);
}

TEST_P(ClusterTest, ScaleUpSpreadsAcrossNodes) {
  auto cluster = MakeCluster(4);
  cluster->RegisterFunction("fn");
  cluster->ScaleTo("fn", 8);
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 8; }, Seconds(120)));
  // Least-allocated placement: 2 pods per node.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster->scheduler().AllocatedCpuOn(Cluster::NodeName(i)), 500)
        << "node " << i;
  }
}

TEST_P(ClusterTest, ScaleDownRemovesPods) {
  auto cluster = MakeCluster(4);
  cluster->RegisterFunction("fn");
  cluster->ScaleTo("fn", 6);
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 6; }, Seconds(120)));
  cluster->ScaleTo("fn", 2);
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 2; }, Seconds(120)))
      << "still " << cluster->ReadyPodCount("fn") << " pods";
  // Tombstones are garbage collected once the terminations land (Kd).
  if (GetParam() == Mode::kKd) {
    ASSERT_TRUE(cluster->RunUntil(
        [&] {
          return cluster->replicaset_controller().tombstone_count() == 0 &&
                 cluster->scheduler().tombstone_count() == 0;
        },
        Seconds(30)));
  }
}

TEST_P(ClusterTest, ScaleToZeroDrainsFunction) {
  auto cluster = MakeCluster(2);
  cluster->RegisterFunction("fn");
  cluster->ScaleTo("fn", 4);
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 4; }, Seconds(120)));
  cluster->ScaleTo("fn", 0);
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 0; }, Seconds(120)));
}

TEST_P(ClusterTest, MultipleFunctionsScaleIndependently) {
  auto cluster = MakeCluster(8);
  for (int f = 0; f < 5; ++f) {
    cluster->RegisterFunction("fn-" + std::to_string(f));
  }
  for (int f = 0; f < 5; ++f) {
    cluster->ScaleTo("fn-" + std::to_string(f), f + 1);
  }
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        for (int f = 0; f < 5; ++f) {
          if (cluster->ReadyPodCount("fn-" + std::to_string(f)) !=
              static_cast<std::size_t>(f + 1)) {
            return false;
          }
        }
        return true;
      },
      Seconds(200)));
  EXPECT_EQ(cluster->TotalReadyPods(), 1u + 2 + 3 + 4 + 5);
}

TEST_P(ClusterTest, RepeatedScaleCallsConverge) {
  auto cluster = MakeCluster(4);
  cluster->RegisterFunction("fn");
  // A burst of conflicting decisions; the last one wins (level
  // triggered).
  cluster->ScaleTo("fn", 3);
  cluster->ScaleTo("fn", 7);
  cluster->ScaleTo("fn", 5);
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->ReadyPodCount("fn") == 5; }, Seconds(120)));
  // And it stays there (no oscillation).
  engine_.RunFor(Seconds(5));
  EXPECT_EQ(cluster->ReadyPodCount("fn"), 5u);
}

TEST_P(ClusterTest, CapacityLimitLeavesExcessPending) {
  auto cluster = MakeCluster(1);  // one node, 10 CPU => 40 pods of 250m
  cluster->RegisterFunction("fn");
  cluster->ScaleTo("fn", 45);
  cluster->RunUntil([&] { return cluster->ReadyPodCount("fn") >= 40; },
                    Seconds(200));
  engine_.RunFor(Seconds(5));
  EXPECT_EQ(cluster->ReadyPodCount("fn"), 40u);  // capacity-bound
}

INSTANTIATE_TEST_SUITE_P(Modes, ClusterTest,
                         ::testing::Values(Mode::kK8s, Mode::kKd),
                         [](const ::testing::TestParamInfo<Mode>& param_info) {
                           return controllers::ModeName(param_info.param);
                         });

// --- K8s-specific behaviour -------------------------------------------

TEST(ClusterK8sTest, ConflictedPublishRetriesWithTheSameCompletion) {
  // A Kubelet's status update that hits a Conflict is re-read and
  // retried; the retry completes like a first-try publish, so every
  // published pod also records its kubelet_pod_latency sample.
  sim::Engine engine;
  ClusterConfig config = ClusterConfig::K8s(2);
  config.realistic_pod_template = false;
  Cluster cluster(engine, std::move(config));
  int conflicts = 0;
  cluster.apiserver().AddAdmissionHook(
      [&conflicts](apiserver::AdmissionOp op, const model::ApiObject*,
                   const model::ApiObject* incoming) {
        if (op == apiserver::AdmissionOp::kUpdate && conflicts == 0 &&
            incoming->kind == model::kKindPod &&
            model::GetPodPhase(*incoming) == model::PodPhase::kRunning) {
          ++conflicts;
          return ConflictError("injected");
        }
        return OkStatus();
      });
  cluster.Boot();
  cluster.RegisterFunction("fn");
  cluster.ScaleTo("fn", 4);
  const MetricsRecorder& metrics = cluster.metrics();
  ASSERT_TRUE(cluster.RunUntil(
      [&] {
        return cluster.ReadyPodCount("fn") == 4 &&
               metrics.GetCount("pods_published") == 4;
      },
      Seconds(120)));
  EXPECT_EQ(conflicts, 1);
  EXPECT_EQ(metrics.GetSample("kubelet_pod_latency").count(), 4u);
}

// --- Kd-specific behaviour --------------------------------------------

TEST(ClusterKdTest, KdFasterThanK8sOnBurst) {
  // The headline effect: scaling out a burst of pods is much faster
  // through direct message passing than through the API server.
  auto run = [](ClusterConfig config) {
    sim::Engine engine;
    config.realistic_pod_template = true;  // wire sizes matter here
    Cluster cluster(engine, std::move(config));
    cluster.Boot();
    cluster.RegisterFunction("fn");
    const Time start = engine.now();
    cluster.ScaleTo("fn", 100);
    EXPECT_TRUE(cluster.RunUntil(
        [&] { return cluster.ReadyPodCount("fn") == 100; }, Seconds(600)));
    return engine.now() - start;
  };
  const Duration k8s = run(ClusterConfig::K8s(40));
  const Duration kd = run(ClusterConfig::Kd(40));
  EXPECT_GT(k8s, 2 * kd) << "K8s=" << FormatDuration(k8s)
                         << " Kd=" << FormatDuration(kd);
}

TEST(ClusterKdTest, ExternalReplicasWriteRejected) {
  sim::Engine engine;
  ClusterConfig config = ClusterConfig::Kd(2);
  config.realistic_pod_template = false;
  Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  engine.RunFor(Milliseconds(100));

  // An external client tries to scale the guarded Deployment directly.
  apiserver::ApiClient external(engine, cluster.apiserver(), "external", 100,
                                100);
  const model::ApiObject* dep =
      cluster.apiserver().Peek(model::kKindDeployment, "fn");
  ASSERT_NE(dep, nullptr);
  model::ApiObject update = *dep;
  model::SetReplicas(update, 50);
  Status status = OkStatus();
  external.Update(update, [&](StatusOr<model::ApiObject> r) {
    status = r.status();
  });
  engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);

  // Removing the annotation hands control back (the documented opt-out).
  model::ApiObject release = *cluster.apiserver().Peek(
      model::kKindDeployment, "fn");
  model::SetKubeDirectManaged(release, false);
  model::SetReplicas(release, 3);
  Status release_status = InternalError("never");
  external.Update(release,
                  [&](StatusOr<model::ApiObject> r) {
                    release_status = r.status();
                  });
  engine.Run();
  EXPECT_TRUE(release_status.ok()) << release_status.ToString();
}

TEST(ClusterKdTest, PodsHiddenUntilReady) {
  // §5 exclusive ownership: ephemeral pods must not appear in the API
  // server until the Kubelet publishes them.
  sim::Engine engine;
  ClusterConfig config = ClusterConfig::Kd(2);
  config.realistic_pod_template = false;
  Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  cluster.ScaleTo("fn", 4);
  // Probe while the scale-out is in flight: every pod visible in the
  // API server must already be Running.
  bool saw_nonrunning = false;
  for (int i = 0; i < 600; ++i) {
    engine.RunFor(Milliseconds(5));
    for (const model::ApiObject* pod :
         cluster.apiserver().PeekAll(model::kKindPod)) {
      if (model::GetPodPhase(*pod) != model::PodPhase::kRunning) {
        saw_nonrunning = true;
      }
    }
  }
  EXPECT_FALSE(saw_nonrunning);
  EXPECT_EQ(cluster.ReadyPodCount("fn"), 4u);
}

}  // namespace
}  // namespace kd::cluster
