// Scenario-engine tests (ROADMAP item 4): the declarative schedule
// language, the SloGuard invariants, and the ScenarioRunner's
// composition of the existing fault seams.
//
// The two trace tests are the engine's fingerprint contract:
//
//   * an armed runner with an EMPTY schedule (and a disabled guard)
//     must leave the event trace byte-identical to not constructing a
//     runner at all — this is what keeps the repo's baseline
//     fingerprints (determinism_test.cc) valid while the scenario
//     seams sit in the product tree;
//   * a FIXED schedule run twice must be byte-identical, op log
//     included — schedule + seed fully determine the run, the same
//     reproducibility contract the crash-point sweep has.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/strings.h"
#include "faas/gateway.h"
#include "model/objects.h"
#include "scenario/runner.h"
#include "scenario/schedule.h"
#include "scenario/slo_guard.h"
#include "sim/engine.h"

namespace kd {
namespace {

using scenario::ArrivalPlan;
using scenario::FlashFactorAt;
using scenario::FormatOp;
using scenario::Op;
using scenario::ParseSchedule;
using scenario::RunnerConfig;
using scenario::Schedule;
using scenario::ScenarioRunner;
using scenario::SloGuard;
using scenario::SloLimits;
using scenario::SloSnapshot;
using scenario::UpgradeOrder;

// --- schedule parsing --------------------------------------------------

TEST(ScheduleParseTest, ParsesEveryOpKind) {
  const StatusOr<Schedule> parsed = ParseSchedule(
      "at 30s spot-reclaim pool=spot fraction=0.5 notice=10s respawn=40s\n"
      "at 45s rolling-upgrade order=upstream-first pause=2s down=250ms\n"
      "at 1m flash-crowd factor=10 ramp=5s hold=20s\n"
      "at 90s apiserver-blip down=5s\n"
      "at 100s partition a=kd.scheduler b=kd.kubelet.node-0003 "
      "duration=10s\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Schedule& schedule = *parsed;
  ASSERT_EQ(schedule.ops.size(), 5u);

  EXPECT_EQ(schedule.ops[0].at, Seconds(30));
  EXPECT_EQ(schedule.ops[0].op.kind, Op::Kind::kSpotReclaim);
  EXPECT_EQ(schedule.ops[0].op.pool, "spot");
  EXPECT_DOUBLE_EQ(schedule.ops[0].op.fraction, 0.5);
  EXPECT_EQ(schedule.ops[0].op.notice, Seconds(10));
  EXPECT_EQ(schedule.ops[0].op.respawn, Seconds(40));

  EXPECT_EQ(schedule.ops[1].op.kind, Op::Kind::kRollingUpgrade);
  EXPECT_EQ(schedule.ops[1].op.order, UpgradeOrder::kUpstreamFirst);
  EXPECT_EQ(schedule.ops[1].op.pause, Seconds(2));
  EXPECT_EQ(schedule.ops[1].op.down, Milliseconds(250));

  EXPECT_EQ(schedule.ops[2].at, Minutes(1));
  EXPECT_EQ(schedule.ops[2].op.kind, Op::Kind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(schedule.ops[2].op.factor, 10.0);
  EXPECT_EQ(schedule.ops[2].op.ramp, Seconds(5));
  EXPECT_EQ(schedule.ops[2].op.hold, Seconds(20));

  EXPECT_EQ(schedule.ops[3].op.kind, Op::Kind::kApiServerBlip);
  EXPECT_EQ(schedule.ops[3].op.down, Seconds(5));

  EXPECT_EQ(schedule.ops[4].op.kind, Op::Kind::kPartition);
  EXPECT_EQ(schedule.ops[4].op.a, "kd.scheduler");
  EXPECT_EQ(schedule.ops[4].op.b, "kd.kubelet.node-0003");
  EXPECT_EQ(schedule.ops[4].op.duration, Seconds(10));
}

TEST(ScheduleParseTest, DurationSuffixes) {
  const StatusOr<Schedule> parsed = ParseSchedule(
      "at 1500ms spot-reclaim pool=p fraction=1 notice=2s respawn=1m\n"
      "at 3 apiserver-blip down=500ms\n");  // bare number = seconds
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->ops[0].at, Milliseconds(1500));
  EXPECT_EQ(parsed->ops[0].op.notice, Seconds(2));
  EXPECT_EQ(parsed->ops[0].op.respawn, Minutes(1));
  EXPECT_EQ(parsed->ops[1].at, Seconds(3));
  EXPECT_EQ(parsed->ops[1].op.down, Milliseconds(500));
}

TEST(ScheduleParseTest, IgnoresCommentsAndBlankLines) {
  const StatusOr<Schedule> parsed = ParseSchedule(
      "# a full-line comment\n"
      "\n"
      "at 5s apiserver-blip down=1s  # trailing comment\n"
      "   \n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->ops.size(), 1u);
  EXPECT_EQ(parsed->ops[0].at, Seconds(5));
}

TEST(ScheduleParseTest, EmptyTextIsEmptySchedule) {
  const StatusOr<Schedule> parsed = ParseSchedule("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(ScheduleParseTest, RejectsMalformedInput) {
  const char* bad[] = {
      "spot-reclaim pool=spot fraction=1",         // missing "at <time>"
      "at abc spot-reclaim pool=spot",             // bad time
      "at 5s melt-down pool=spot",                 // unknown op
      "at 5s spot-reclaim fraction=1.5",           // fraction out of [0,1]
      "at 5s flash-crowd factor=0.5",              // factor < 1
      "at 5s rolling-upgrade order=sideways",      // unknown order
      "at 5s spot-reclaim pool",                   // not key=value
      "at 5s spot-reclaim color=red",              // unknown key
      "at 5s apiserver-blip shard=1 down=1s",      // unknown key
      "at 5s spot-reclaim notice=soon",            // bad duration
  };
  int line = 0;
  for (const char* text : bad) {
    ++line;
    const StatusOr<Schedule> parsed = ParseSchedule(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    if (!parsed.ok()) {
      // Every diagnostic names the offending line.
      EXPECT_NE(parsed.status().message().find("schedule line 1"),
                std::string::npos)
          << parsed.status().message();
    }
  }
  (void)line;
}

TEST(ScheduleParseTest, FormatOpNamesKindAndKeyFields) {
  const StatusOr<Schedule> parsed = ParseSchedule(
      "at 0s spot-reclaim pool=spot fraction=0.5 notice=10s\n"
      "at 0s flash-crowd factor=6 ramp=5s hold=20s\n");
  ASSERT_TRUE(parsed.ok());
  const std::string reclaim = FormatOp(parsed->ops[0].op);
  EXPECT_NE(reclaim.find("spot-reclaim"), std::string::npos);
  EXPECT_NE(reclaim.find("pool=spot"), std::string::npos);
  EXPECT_NE(reclaim.find("fraction=0.50"), std::string::npos);
  const std::string crowd = FormatOp(parsed->ops[1].op);
  EXPECT_NE(crowd.find("flash-crowd"), std::string::npos);
  EXPECT_NE(crowd.find("factor=6.0"), std::string::npos);
}

// --- flash-crowd load shaping ------------------------------------------

TEST(FlashFactorTest, TrapezoidProfile) {
  const Schedule schedule = *ParseSchedule(
      "at 10s flash-crowd factor=5 ramp=4s hold=6s\n");
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Seconds(0)), 1.0);   // quiet
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Seconds(12)), 3.0);  // mid-ramp
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Seconds(14)), 5.0);  // ramp top
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Seconds(18)), 5.0);  // hold
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Seconds(22)), 3.0);  // mid-fall
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Seconds(24)), 1.0);  // over
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Minutes(5)), 1.0);
}

TEST(FlashFactorTest, OverlappingCrowdsMultiply) {
  const Schedule schedule = *ParseSchedule(
      "at 0s flash-crowd factor=2 ramp=0s hold=20s\n"
      "at 10s flash-crowd factor=3 ramp=0s hold=20s\n");
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Seconds(5)), 2.0);
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Seconds(15)), 6.0);
  EXPECT_DOUBLE_EQ(FlashFactorAt(schedule, Seconds(25)), 3.0);
}

TEST(ArrivalPlanTest, DeterministicAndDensifiedByCrowd) {
  const Schedule quiet;  // empty
  const Schedule crowd = *ParseSchedule(
      "at 10s flash-crowd factor=8 ramp=2s hold=30s\n");
  const std::vector<Duration> base = ArrivalPlan(quiet, Minutes(1), 2.0);
  const std::vector<Duration> surged = ArrivalPlan(crowd, Minutes(1), 2.0);
  // Same inputs, same plan — twice.
  EXPECT_EQ(surged, ArrivalPlan(crowd, Minutes(1), 2.0));
  // Quiet plan: 2 rps over 60 s.
  EXPECT_EQ(base.size(), 120u);
  // The crowd adds arrivals; every arrival is inside [0, length).
  EXPECT_GT(surged.size(), base.size());
  for (Duration t : surged) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, Minutes(1));
  }
  EXPECT_TRUE(std::is_sorted(surged.begin(), surged.end()));
}

TEST(ArrivalPlanTest, PhaseOffsetsTheFirstArrival) {
  const Schedule quiet;
  const std::vector<Duration> shifted =
      ArrivalPlan(quiet, Seconds(10), 1.0, Milliseconds(37));
  ASSERT_FALSE(shifted.empty());
  EXPECT_EQ(shifted.front(), Milliseconds(37));
}

// --- SloGuard ----------------------------------------------------------

TEST(SloGuardTest, DefaultLimitsNeverTrip) {
  SloGuard guard;  // all guards disabled
  SloSnapshot terrible;
  terrible.have_cold_sample = true;
  terrible.recent_cold_p99_ms = 1e9;
  terrible.stale_functions = {"fn-a"};
  terrible.invocations_issued = 100;
  terrible.invocations_completed = 1;
  terrible.invocations_pending = 0;  // 99 lost!
  for (int epoch = 0; epoch < 100; ++epoch) {
    guard.Observe(Seconds(epoch), terrible);
  }
  EXPECT_TRUE(guard.clean());
  for (const char* name :
       {"cold-p99", "endpoint-staleness", "lost-invocations"}) {
    EXPECT_FALSE(guard.tripped(name)) << name;
  }
}

TEST(SloGuardTest, ColdP99TripsAndClears) {
  SloLimits limits;
  limits.cold_p99_ratio = 2.0;
  limits.quiet_cold_p99_ms = 100.0;
  SloGuard guard(limits);

  SloSnapshot fine;
  fine.have_cold_sample = true;
  fine.recent_cold_p99_ms = 150.0;  // under 2.0 x 100ms
  guard.Observe(Seconds(1), fine);
  EXPECT_FALSE(guard.tripped("cold-p99"));

  SloSnapshot breach = fine;
  breach.recent_cold_p99_ms = 500.0;
  guard.Observe(Seconds(2), breach);
  EXPECT_TRUE(guard.tripped("cold-p99"));
  ASSERT_EQ(guard.breaches().size(), 1u);
  EXPECT_EQ(guard.breaches()[0].guard, "cold-p99");
  EXPECT_EQ(guard.breaches()[0].at, Seconds(2));

  // Edge-triggered: staying in breach adds no new record.
  guard.Observe(Seconds(3), breach);
  EXPECT_EQ(guard.breaches().size(), 1u);

  guard.Observe(Seconds(4), fine);
  EXPECT_FALSE(guard.tripped("cold-p99"));
  EXPECT_FALSE(guard.clean()) << "history keeps the breach record";

  // A fresh excursion is a second edge.
  guard.Observe(Seconds(5), breach);
  EXPECT_EQ(guard.breaches().size(), 2u);
}

TEST(SloGuardTest, StalenessRequiresContinuousDivergence) {
  SloLimits limits;
  limits.endpoint_staleness = Seconds(10);
  SloGuard guard(limits);

  SloSnapshot stale;
  stale.stale_functions = {"fn-a"};
  SloSnapshot agree;

  // Divergence shorter than the bound: tolerated.
  guard.Observe(Seconds(0), stale);
  guard.Observe(Seconds(5), stale);
  EXPECT_FALSE(guard.tripped("endpoint-staleness"));
  guard.Observe(Seconds(6), agree);  // views agree again -> timer resets
  guard.Observe(Seconds(7), stale);  // fresh divergence starts at 7s
  guard.Observe(Seconds(16), stale); // 9s continuous: still inside bound
  EXPECT_FALSE(guard.tripped("endpoint-staleness"));
  guard.Observe(Seconds(17), stale); // 10s continuous: trip
  EXPECT_TRUE(guard.tripped("endpoint-staleness"));
  guard.Observe(Seconds(18), agree);
  EXPECT_FALSE(guard.tripped("endpoint-staleness"));
  EXPECT_EQ(guard.breaches().size(), 1u);
}

TEST(SloGuardTest, LostInvocationsTrip) {
  SloLimits limits;
  limits.check_no_lost = true;
  SloGuard guard(limits);

  SloSnapshot ok;
  ok.invocations_issued = 10;
  ok.invocations_completed = 6;
  ok.invocations_pending = 4;
  guard.Observe(Seconds(1), ok);
  EXPECT_FALSE(guard.tripped("lost-invocations"));

  SloSnapshot lost = ok;
  lost.invocations_pending = 3;  // one vanished
  guard.Observe(Seconds(2), lost);
  EXPECT_TRUE(guard.tripped("lost-invocations"));
  ASSERT_EQ(guard.breaches().size(), 1u);
  EXPECT_EQ(guard.breaches()[0].guard, "lost-invocations");
}

// --- trace identity (the fingerprint contract) -------------------------

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void AttachRecorder(sim::Engine& engine, std::string& trace) {
  engine.set_trace_hook([&trace](Time t, std::uint64_t seq, sim::EventId) {
    trace += StrFormat("%lld %llu\n", static_cast<long long>(t),
                       static_cast<unsigned long long>(seq));
  });
}

// The determinism_test.cc Kd scenario, pool-labelled and with an
// optional armed ScenarioRunner in the middle of it.
std::string PooledClusterTrace(const std::string& schedule_text,
                               bool attach_runner,
                               std::vector<std::string>* op_log = nullptr) {
  sim::Engine engine;
  std::string trace;
  AttachRecorder(engine, trace);

  cluster::ClusterConfig config = cluster::ClusterConfig::Kd(6);
  config.realistic_pod_template = false;
  config.node_pools = {{"ondemand", 3}, {"spot", 3}};
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn-a");
  cluster.RegisterFunction("fn-b");
  engine.RunFor(Milliseconds(200));

  std::unique_ptr<ScenarioRunner> runner;
  if (attach_runner) {
    Schedule schedule = ParseSchedule(schedule_text).value();
    runner = std::make_unique<ScenarioRunner>(cluster, std::move(schedule));
    runner->Start();
  }

  const Duration window = Seconds(15);
  cluster.ScaleTo("fn-a", 12);
  cluster.ScaleTo("fn-b", 6);
  engine.RunFor(window);
  cluster.ScaleTo("fn-a", 4);
  cluster.ScaleTo("fn-b", 9);
  engine.RunFor(window);

  if (op_log != nullptr && runner != nullptr) {
    for (const ScenarioRunner::LogEntry& entry : runner->op_log()) {
      op_log->push_back(StrFormat("%lld %s",
                                  static_cast<long long>(entry.at),
                                  entry.what.c_str()));
    }
  }
  return trace;
}

TEST(ScenarioTraceTest, EmptyScheduleLeavesTraceUntouched) {
  const std::string bare = PooledClusterTrace("", /*attach_runner=*/false);
  const std::string armed = PooledClusterTrace("", /*attach_runner=*/true);
  ASSERT_FALSE(bare.empty());
  EXPECT_EQ(bare, armed)
      << "an armed runner with an empty schedule must schedule nothing";
}

TEST(ScenarioTraceTest, FixedScheduleIsByteIdenticalAcrossRuns) {
  const std::string schedule =
      "at 2s spot-reclaim pool=spot fraction=0.67 notice=3s respawn=5s\n"
      "at 4s apiserver-blip down=2s\n"
      "at 6s partition a=kd.scheduler b=kd.kubelet.node-0001 duration=2s\n"
      "at 9s rolling-upgrade order=downstream-first pause=300ms down=150ms\n";
  std::vector<std::string> log_first, log_second;
  const std::string first =
      PooledClusterTrace(schedule, /*attach_runner=*/true, &log_first);
  const std::string second =
      PooledClusterTrace(schedule, /*attach_runner=*/true, &log_second);
  ASSERT_FALSE(first.empty());
  EXPECT_GT(first.size(), 10'000u) << "scenario too small to be a safety net";
  EXPECT_EQ(first, second);
  EXPECT_EQ(log_first, log_second);
  EXPECT_FALSE(log_first.empty());
  std::printf("[trace] scenario: %zu bytes, %zu ops, fingerprint %016llx\n",
              first.size(), log_first.size(),
              static_cast<unsigned long long>(Fnv1a(first)));
}

// --- reclaim-notice drain ----------------------------------------------

std::vector<std::string> RunningPodNodes(cluster::Cluster& cluster) {
  std::vector<std::string> nodes;
  for (const model::ApiObject* pod :
       cluster.apiserver().PeekAll(model::kKindPod)) {
    if (model::GetPodPhase(*pod) == model::PodPhase::kRunning) {
      nodes.push_back(model::GetNodeName(*pod));
    }
  }
  return nodes;
}

bool AnyOnNodes(const std::vector<std::string>& pod_nodes,
                const std::vector<std::string>& nodes) {
  for (const std::string& n : pod_nodes) {
    if (std::find(nodes.begin(), nodes.end(), n) != nodes.end()) return true;
  }
  return false;
}

TEST(ScenarioRunnerTest, ReclaimNoticeDrainsBeforeTheDeadline) {
  sim::Engine engine;
  cluster::ClusterConfig config = cluster::ClusterConfig::Kd(6);
  config.realistic_pod_template = false;
  config.node_pools = {{"ondemand", 3}, {"spot", 3}};
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  engine.RunFor(Milliseconds(200));
  cluster.ScaleTo("fn", 6);
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 6; }, Minutes(1)));

  const std::vector<std::string> spot = cluster.NodesInPool("spot");
  ASSERT_EQ(spot.size(), 3u);
  // Least-allocated spreading put pods on the spot nodes too.
  ASSERT_TRUE(AnyOnNodes(RunningPodNodes(cluster), spot));

  ScenarioRunner runner(
      cluster,
      ParseSchedule(
          "at 100ms spot-reclaim pool=spot fraction=1.0 notice=10s "
          "respawn=20s\n")
          .value());
  runner.Start();
  const Time deadline = engine.now() + Milliseconds(100) + Seconds(10);

  // The notice lands through the store; the Scheduler starts draining.
  engine.RunFor(Seconds(2));
  for (const std::string& node : spot) {
    EXPECT_TRUE(cluster.scheduler().IsNodeDraining(node)) << node;
  }
  EXPECT_EQ(cluster.metrics().GetCount("nodes_draining"), 3);

  // Within the grace window every pod is off the doomed machines and
  // capacity is back to target — nothing waits for the crash.
  const bool drained = cluster.RunUntil(
      [&] {
        return cluster.ReadyPodCount("fn") == 6 &&
               !AnyOnNodes(RunningPodNodes(cluster), spot);
      },
      deadline - engine.now());
  EXPECT_TRUE(drained) << "drain did not finish inside the notice window";
  EXPECT_LT(engine.now(), deadline);

  // Ride through the actual reclaim and the respawn: capacity holds,
  // and the respawned machines eventually stop draining.
  engine.RunFor(Seconds(25));
  EXPECT_EQ(cluster.ReadyPodCount("fn"), 6u);
  ASSERT_TRUE(cluster.RunUntil(
      [&] {
        for (const std::string& node : spot) {
          if (cluster.scheduler().IsNodeDraining(node)) return false;
        }
        return true;
      },
      Minutes(1)))
      << "respawned nodes still marked draining";
}

// --- rolling upgrades --------------------------------------------------

class UpgradeOrderTest : public ::testing::TestWithParam<const char*> {};

TEST_P(UpgradeOrderTest, ClusterConvergesThroughTheUpgrade) {
  sim::Engine engine;
  cluster::ClusterConfig config = cluster::ClusterConfig::Kd(4);
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  engine.RunFor(Milliseconds(200));
  cluster.ScaleTo("fn", 4);
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 4; }, Minutes(1)));

  ScenarioRunner runner(
      cluster, ParseSchedule(StrFormat(
                   "at 100ms rolling-upgrade order=%s pause=200ms down=100ms\n",
                   GetParam()))
                   .value());
  runner.Start();

  // Scale up mid-upgrade: the request must survive whichever victim is
  // down when it lands.
  engine.RunFor(Milliseconds(500));
  cluster.ScaleTo("fn", 8);

  EXPECT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 8; }, Minutes(2)))
      << "scale-up issued mid-upgrade never converged";

  // The scale-up can converge while the tail victims are still
  // cycling; let the upgrade itself run to completion too.
  auto upgrade_complete = [&runner] {
    for (const ScenarioRunner::LogEntry& entry : runner.op_log()) {
      if (entry.what == "rolling-upgrade complete") return true;
    }
    return false;
  };
  EXPECT_TRUE(cluster.RunUntil(upgrade_complete, Minutes(1)));
  EXPECT_EQ(cluster.ReadyPodCount("fn"), 8u);
}

INSTANTIATE_TEST_SUITE_P(Orders, UpgradeOrderTest,
                         ::testing::Values("downstream-first",
                                           "upstream-first"));

// --- autoscaler anti-flap hold -----------------------------------------

TEST(ScenarioRunnerTest, AutoscalerHoldsScaleDownAfterUpgradeBlip) {
  sim::Engine engine;
  cluster::ClusterConfig config = cluster::ClusterConfig::Kd(4);
  config.realistic_pod_template = false;
  config.autoscaler.scale_down_hold = Seconds(5);
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  engine.RunFor(Milliseconds(200));
  cluster.ScaleTo("fn", 4);
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 4; }, Minutes(1)));

  // An upgrade blip of the downstream Deployment controller: the
  // autoscaler's link re-handshakes, opening a fresh hold window.
  cluster.deployment_controller().Crash();
  engine.RunFor(Milliseconds(100));
  cluster.deployment_controller().Restart();
  ASSERT_TRUE(cluster.RunUntil([&] { return cluster.autoscaler().link_ready(); },
                               Seconds(10)));

  // A scale-down inside the window is deferred, not applied: this is
  // the distorted-demand whipsaw the hold exists to absorb.
  cluster.ScaleTo("fn", 1);
  engine.RunFor(Seconds(2));
  EXPECT_EQ(cluster.ReadyPodCount("fn"), 4u) << "scale-down was not held";
  EXPECT_GE(cluster.metrics().GetCount("autoscaler.scale_down_held"), 1);

  // ...and a scale-UP during the window passes immediately.
  cluster.ScaleTo("fn", 6);
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 6; }, Seconds(10)));

  // After the window expires the policy's latest word applies.
  cluster.ScaleTo("fn", 1);
  EXPECT_TRUE(cluster.RunUntil(
      [&] { return cluster.ReadyPodCount("fn") == 1; }, Minutes(1)));
}

// --- gateway failover --------------------------------------------------

TEST(ScenarioRunnerTest, FailInstancesRequeuesWithoutLosingInvocations) {
  sim::Engine engine;
  faas::Gateway gateway(engine);
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.concurrency = 1;
  gateway.RegisterFunction(spec);
  gateway.UpdateEndpoints("fn", {"10.0.0.1", "10.0.0.2"});

  for (int i = 0; i < 4; ++i) {
    faas::Invocation inv;
    inv.function = "fn";
    inv.arrival = engine.now();
    inv.duration = Seconds(5);
    gateway.Invoke(std::move(inv));
  }
  engine.RunFor(Seconds(1));  // two executing, two queued

  // The spot machine hosting 10.0.0.1 is reclaimed with zero notice.
  EXPECT_EQ(gateway.FailInstances({"10.0.0.1"}), 1u);
  gateway.UpdateEndpoints("fn", {"10.0.0.2"});
  engine.RunFor(Minutes(1));

  // Every invocation completed on the survivor; the in-flight victim
  // was requeued (paying latency), not dropped.
  EXPECT_EQ(gateway.records().size(), 4u);
  EXPECT_EQ(gateway.total_invocations(), 4u);
  EXPECT_EQ(gateway.instances_failed(), 1u);
  EXPECT_GE(gateway.requeued_on_failure(), 1u);

  // The SloGuard's accounting view of the same run is clean.
  SloLimits limits;
  limits.check_no_lost = true;
  SloGuard guard(limits);
  SloSnapshot snapshot;
  snapshot.invocations_issued =
      static_cast<std::int64_t>(gateway.total_invocations());
  snapshot.invocations_completed =
      static_cast<std::int64_t>(gateway.records().size());
  snapshot.invocations_pending = gateway.Demand("fn");
  guard.Observe(engine.now(), snapshot);
  EXPECT_TRUE(guard.clean());
}

}  // namespace
}  // namespace kd
