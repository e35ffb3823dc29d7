// Runtime lane-ownership checker tests (ctest label: lane).
//
// The static analysis (kdlint R7/R8) proves no component *type*
// reaches another type's KD_LANE_OWNED state outside a sanctioned
// seam; these tests exercise the dynamic half: per-instance isolation
// at run time. The synthetic cases pin the checker's mechanics
// (ownership breaches, provenance, lane inheritance through closure
// chains); the cluster walks assert the real tree — boot, scale,
// controller crashes, API-server blips — stays silent. The checker is
// always on, so the golden fingerprints of determinism_test.cc are
// recorded with it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/cluster.h"
#include "common/lane.h"
#include "model/objects.h"
#include "runtime/cache.h"
#include "sim/engine.h"
#include "sim/lane_checker.h"

namespace kd {
namespace {

model::ApiObject MakeObject(const std::string& kind, const std::string& name,
                            std::uint64_t rv) {
  model::ApiObject obj;
  obj.kind = kind;
  obj.name = name;
  obj.resource_version = rv;
  return obj;
}

TEST(LaneCheckerTest, RegisterLaneIsDenseAndReusesNames) {
  sim::LaneChecker checker;
  const LaneId a = checker.RegisterLane("alpha");
  const LaneId b = checker.RegisterLane("beta");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(checker.RegisterLane("alpha"), a);
  EXPECT_EQ(checker.lane_count(), 2u);
  EXPECT_EQ(checker.lane_name(a), "alpha");
  EXPECT_EQ(checker.lane_name(kNoLane), "<none>");
}

TEST(LaneCheckerTest, CrossLaneTouchReportsTheBreachingEvent) {
  sim::Engine engine;
  sim::LaneChecker& checker = engine.lane_checker();
  const LaneId alpha = checker.RegisterLane("alpha");
  const LaneId beta = checker.RegisterLane("beta");

  runtime::ObjectCache cache;
  cache.BindLane(&checker, alpha, "alpha.cache");

  // The owner writes, then a beta-lane event touches the same key.
  {
    sim::LaneScope scope(checker, alpha);
    engine.ScheduleAt(5, [&cache] { cache.Upsert(MakeObject("Pod", "p", 1)); });
  }
  {
    sim::LaneScope scope(checker, beta);
    engine.ScheduleAt(5, [&cache] { cache.Upsert(MakeObject("Pod", "p", 2)); });
  }
  engine.Run();

  ASSERT_EQ(checker.total_conflicts(), 1u);
  const sim::LaneChecker::Conflict& c = checker.conflicts()[0];
  EXPECT_EQ(c.site, "alpha.cache");
  EXPECT_EQ(c.key, "Pod/p");
  EXPECT_EQ(c.owner, alpha);
  EXPECT_EQ(c.actual, beta);
  EXPECT_EQ(c.time, 5);
  EXPECT_EQ(c.seq, 2u);  // the second event scheduled

  const std::string report = checker.FormatReport();
  EXPECT_NE(report.find("alpha.cache"), std::string::npos);
  EXPECT_NE(report.find("'beta' touched state owned by 'alpha'"),
            std::string::npos);
}

TEST(LaneCheckerTest, EventsInheritTheSchedulingContextsLane) {
  sim::Engine engine;
  sim::LaneChecker& checker = engine.lane_checker();
  const LaneId alpha = checker.RegisterLane("alpha");
  const LaneId beta = checker.RegisterLane("beta");

  runtime::ObjectCache mine;
  mine.BindLane(&checker, alpha, "alpha.cache");
  runtime::ObjectCache theirs;
  theirs.BindLane(&checker, beta, "beta.cache");

  // A lane-alpha event schedules a chain of two more events; the whole
  // chain inherits alpha, so touching alpha's cache three levels deep
  // is legal and touching beta's cache from the chain is a breach.
  {
    sim::LaneScope scope(checker, alpha);
    engine.ScheduleAt(1, [&engine, &mine, &theirs] {
      mine.Upsert(MakeObject("Pod", "own", 1));
      engine.ScheduleAfter(3, [&engine, &mine, &theirs] {
        mine.Upsert(MakeObject("Pod", "own", 2));
        engine.ScheduleAfter(2, [&mine, &theirs] {
          EXPECT_NE(mine.Get("Pod/own"), nullptr);  // still legal
          theirs.Upsert(MakeObject("Pod", "foreign", 1));  // breach
        });
      });
    });
  }
  engine.Run();

  ASSERT_EQ(checker.total_conflicts(), 1u);
  const sim::LaneChecker::Conflict& c = checker.conflicts()[0];
  EXPECT_EQ(c.site, "beta.cache");
  EXPECT_EQ(c.owner, beta);
  EXPECT_EQ(c.actual, alpha);  // inherited through two hops
  EXPECT_EQ(c.time, 6);
}

TEST(LaneCheckerTest, DriverTouchesOutsideAnyLaneAreExempt) {
  sim::Engine engine;
  sim::LaneChecker& checker = engine.lane_checker();
  const LaneId alpha = checker.RegisterLane("alpha");

  runtime::ObjectCache cache;
  cache.BindLane(&checker, alpha, "alpha.cache");

  // Test/driver code outside any event, and events scheduled from no
  // lane, may poke owned state freely — kNoLane means "not a
  // component context".
  cache.Upsert(MakeObject("Pod", "seed", 1));
  engine.ScheduleAt(2, [&cache] { cache.Upsert(MakeObject("Pod", "x", 1)); });
  engine.Run();
  EXPECT_EQ(checker.total_conflicts(), 0u);
}

TEST(LaneCheckerTest, LaneScopeRestoresOnExit) {
  sim::LaneChecker checker;
  const LaneId alpha = checker.RegisterLane("alpha");
  const LaneId beta = checker.RegisterLane("beta");
  EXPECT_EQ(checker.current_lane(), kNoLane);
  {
    sim::LaneScope outer(checker, alpha);
    EXPECT_EQ(checker.current_lane(), alpha);
    {
      sim::LaneScope inner(checker, beta);
      EXPECT_EQ(checker.current_lane(), beta);
    }
    EXPECT_EQ(checker.current_lane(), alpha);
  }
  EXPECT_EQ(checker.current_lane(), kNoLane);
  // Null checker pointer (unwired seam) is a no-op.
  sim::LaneScope null_scope(static_cast<sim::LaneChecker*>(nullptr), alpha);
}

// --- full-tree walks -------------------------------------------------

void DriveClusterWalk(sim::Engine& engine, cluster::Cluster& cluster) {
  cluster.Boot();
  cluster.RegisterFunction("fn-a");
  cluster.RegisterFunction("fn-b");
  engine.RunFor(Milliseconds(200));
  cluster.ScaleTo("fn-a", 12);
  cluster.ScaleTo("fn-b", 6);
  engine.RunFor(Seconds(10));

  // Fault mix: controller crashes, a node crash, and an API-server
  // blip — the seams that re-scope lanes (net delivery, informer
  // relist, harness lifecycle) all fire on the recovery paths.
  cluster.scheduler().Crash();
  engine.RunFor(Seconds(2));
  cluster.scheduler().Restart();
  cluster.kubelet(0).Crash();
  engine.RunFor(Seconds(2));
  cluster.kubelet(0).Restart();
  cluster.apiserver().Crash();
  engine.RunFor(Seconds(2));
  cluster.apiserver().Restart();
  cluster.ScaleTo("fn-a", 4);
  engine.RunFor(Seconds(20));
}

TEST(LaneWalkTest, KdClusterWithFaultsRunsClean) {
  sim::Engine engine;
  cluster::ClusterConfig config = cluster::ClusterConfig::Kd(8);
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  DriveClusterWalk(engine, cluster);
  // One lane per controller instance: scheduler, autoscaler,
  // deployment, replicaset, endpoints, kube-proxy, and one per node.
  EXPECT_GE(engine.lane_checker().lane_count(), 10u);
  EXPECT_EQ(engine.lane_checker().total_conflicts(), 0u)
      << engine.lane_checker().FormatReport();
}

TEST(LaneWalkTest, K8sClusterWithFaultsRunsClean) {
  sim::Engine engine;
  cluster::ClusterConfig config = cluster::ClusterConfig::K8s(8);
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  DriveClusterWalk(engine, cluster);
  EXPECT_GE(engine.lane_checker().lane_count(), 10u);
  EXPECT_EQ(engine.lane_checker().total_conflicts(), 0u)
      << engine.lane_checker().FormatReport();
}

}  // namespace
}  // namespace kd
