// Unit tests for the numbered-operation crash seam (FaultPoint) and
// its plumbing: the API server's two-phase persist seam, the
// ControllerHarness handshake/tombstone seams, disarm-on-restart
// semantics, op-counter monotonicity across crash/restart epochs, and
// the per-incarnation fault-counter resets that ride along.
#include "common/fault_point.h"

#include <gtest/gtest.h>

#include <string>

#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "model/objects.h"
#include "net/network.h"
#include "runtime/env.h"
#include "runtime/harness.h"
#include "sim/engine.h"

namespace kd {
namespace {

using model::ApiObject;

// --- FaultPoint ------------------------------------------------------

TEST(FaultPointTest, DisarmedCountsWithoutFiring) {
  FaultPoint fault;
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(fault.Tick());
  EXPECT_EQ(fault.ops(), 3u);
  EXPECT_FALSE(fault.fired());
  EXPECT_FALSE(fault.armed());
}

TEST(FaultPointTest, FiresAtExactIndexOnce) {
  FaultPoint fault;
  int fires = 0;
  fault.set_on_fire([&] { ++fires; });
  fault.Arm(2);
  EXPECT_FALSE(fault.Tick());  // op 0
  EXPECT_FALSE(fault.Tick());  // op 1
  EXPECT_TRUE(fault.Tick());   // op 2: fires
  EXPECT_TRUE(fault.fired());
  EXPECT_FALSE(fault.armed());  // one-shot
  EXPECT_EQ(fires, 1);
  // Later ops keep counting but never re-fire.
  EXPECT_FALSE(fault.Tick());
  EXPECT_EQ(fault.ops(), 4u);
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(fault.fired());  // observable until the next Arm
}

TEST(FaultPointTest, PastIndexNeverFires) {
  FaultPoint fault;
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(fault.Tick());
  fault.Arm(1);  // op 1 already happened
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fault.Tick());
  EXPECT_FALSE(fault.fired());
}

TEST(FaultPointTest, DisarmKeepsCounting) {
  FaultPoint fault;
  fault.Arm(1);
  EXPECT_FALSE(fault.Tick());
  fault.Disarm();
  EXPECT_FALSE(fault.Tick());  // would have fired at op 1
  EXPECT_FALSE(fault.fired());
  EXPECT_EQ(fault.ops(), 2u);
}

TEST(FaultPointTest, RearmClearsFired) {
  FaultPoint fault;
  fault.Arm(0);
  EXPECT_TRUE(fault.Tick());
  EXPECT_TRUE(fault.fired());
  fault.Arm(5);
  EXPECT_FALSE(fault.fired());
  EXPECT_TRUE(fault.armed());
}

// --- ApiServer persist seam ------------------------------------------

class PersistSeamTest : public ::testing::Test {
 protected:
  PersistSeamTest()
      : server_(engine_, CostModel::Default()),
        client_(engine_, server_, "seam-client", 1e6, 1e6) {}

  ApiObject NewDeployment(const std::string& name) {
    return model::MakeDeployment(name, 1,
                                 model::MinimalPodTemplateSpec(name));
  }

  StatusOr<ApiObject> CreateSync(ApiObject obj) {
    StatusOr<ApiObject> result = InternalError("callback never ran");
    client_.Create(std::move(obj),
                   [&](StatusOr<ApiObject> r) { result = std::move(r); });
    engine_.Run();
    return result;
  }

  sim::Engine engine_;
  apiserver::ApiServer server_;
  apiserver::ApiClient client_;
};

TEST_F(PersistSeamTest, PrePersistCrashLosesTheWrite) {
  server_.persist_fault().Arm(0);  // first tick: before the mutation
  const StatusOr<ApiObject> result = CreateSync(NewDeployment("lost"));
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(server_.up());
  EXPECT_TRUE(server_.persist_fault().fired());
  server_.Restart();
  // The fsync never landed: the write is gone.
  EXPECT_EQ(server_.Peek(model::kKindDeployment, "lost"), nullptr);
}

TEST_F(PersistSeamTest, PostPersistCrashKeepsTheCommittedWrite) {
  server_.persist_fault().Arm(1);  // second tick: after mutation+broadcast
  const StatusOr<ApiObject> result = CreateSync(NewDeployment("kept"));
  // Committed but unacknowledged: the client sees a failure...
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(server_.up());
  server_.Restart();
  // ...yet the write survived in etcd.
  ASSERT_NE(server_.Peek(model::kKindDeployment, "kept"), nullptr);
}

TEST_F(PersistSeamTest, RestartDisarmsButOpsStayMonotone) {
  server_.persist_fault().Arm(100);  // never reached
  ASSERT_TRUE(CreateSync(NewDeployment("d1")).ok());
  EXPECT_EQ(server_.persist_fault().ops(), 2u);  // two ticks per write
  server_.Crash();
  server_.Restart();
  EXPECT_FALSE(server_.persist_fault().armed());  // died with the process
  EXPECT_FALSE(server_.persist_fault().fired());
  ASSERT_TRUE(CreateSync(NewDeployment("d2")).ok());
  EXPECT_EQ(server_.persist_fault().ops(), 4u);  // counter never resets
}

TEST_F(PersistSeamTest, DeadlineCounterResetsPerIncarnation) {
  server_.Crash();
  // A request against the dead server hangs until the client-side
  // deadline, incrementing the server-scoped fault counter.
  StatusOr<ApiObject> result = InternalError("callback never ran");
  client_.Create(NewDeployment("d"),
                 [&](StatusOr<ApiObject> r) { result = std::move(r); });
  engine_.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_GE(server_.metrics().GetCount("api_deadline_exceeded"), 1);
  server_.Restart();
  // Fresh incarnation, fresh counters (lifetime totals like
  // "apiserver.crashes" are recorded by the harness that owns the
  // server, not the server itself).
  EXPECT_EQ(server_.metrics().GetCount("api_deadline_exceeded"), 0);
}

// --- ControllerHarness seams -----------------------------------------

class HarnessSeamTest : public ::testing::Test {
 protected:
  HarnessSeamTest()
      : network_(engine_),
        cost_(CostModel::Default()),
        server_(engine_, cost_),
        env_{engine_, network_, server_, cost_, metrics_} {}

  runtime::ControllerHarness::Options Opts(const std::string& name) {
    runtime::ControllerHarness::Options options;
    options.name = name;
    options.client_id = name + "-client";
    options.address = "kd.test." + name;
    options.qps = cost_.controller_qps;
    options.burst = cost_.controller_burst;
    return options;
  }

  void ServeNoneUpstream(runtime::ControllerHarness& parent) {
    runtime::ControllerHarness::UpstreamSpec spec;
    spec.kind_filter = "__none__";
    parent.ServeUpstream(std::move(spec));
  }

  void DialParent(runtime::ControllerHarness& child,
                  const std::string& parent_name) {
    runtime::ControllerHarness::DownstreamSpec spec;
    spec.peer = "kd.test." + parent_name;
    spec.kind_filter = "__none__";
    child.ConnectDownstream(std::move(spec));
  }

  sim::Engine engine_;
  net::Network network_;
  CostModel cost_;
  apiserver::ApiServer server_;
  MetricsRecorder metrics_;
  runtime::Env env_;
};

TEST_F(HarnessSeamTest, HandshakeFaultCrashesOwnerMidHandshake) {
  runtime::ControllerHarness parent(env_, runtime::Mode::kKd, Opts("parent"));
  runtime::ControllerHarness child(env_, runtime::Mode::kKd, Opts("child"));
  ServeNoneUpstream(parent);
  DialParent(child, "parent");

  // Arm before Start: the very first message the child receives (the
  // handshake's StateVersions) kills it.
  child.handshake_fault().Arm(0);
  parent.Start();
  child.Start();
  engine_.RunFor(Seconds(5));
  EXPECT_TRUE(child.handshake_fault().fired());
  EXPECT_TRUE(child.crashed());
  EXPECT_FALSE(child.link_ready());

  // Restart disarms the seam and the handshake completes cleanly.
  child.Restart();
  EXPECT_FALSE(child.handshake_fault().armed());
  engine_.RunFor(Seconds(5));
  EXPECT_TRUE(child.link_ready());
}

TEST_F(HarnessSeamTest, OpsCountAcrossEpochsAndInitialStartKeepsArming) {
  runtime::ControllerHarness parent(env_, runtime::Mode::kKd, Opts("parent"));
  runtime::ControllerHarness child(env_, runtime::Mode::kKd, Opts("child"));
  ServeNoneUpstream(parent);
  DialParent(child, "parent");

  parent.Start();
  child.Start();
  engine_.RunFor(Seconds(5));
  ASSERT_TRUE(child.link_ready());
  // An empty "__none__" handshake is one received message: the
  // server's StateVersions (nothing differs, so no snapshot follows).
  const std::uint64_t handshake_ops = child.handshake_fault().ops();
  EXPECT_GE(handshake_ops, 1u);

  // Crash + restart: the counter keeps running across epochs, so an
  // index can address "the Nth message this controller EVER received".
  child.Crash();
  child.Restart();
  engine_.RunFor(Seconds(5));
  ASSERT_TRUE(child.link_ready());
  EXPECT_GE(child.handshake_fault().ops(), 2 * handshake_ops);
}

TEST_F(HarnessSeamTest, TombstoneFaultDropsIntentAndCrashesOwner) {
  runtime::ControllerHarness harness(env_, runtime::Mode::kKd, Opts("ctrl"));
  harness.Start();
  harness.tombstones().Add("Pod/survivor", engine_.now());
  EXPECT_EQ(harness.tombstones().size(), 1u);

  harness.tombstone_fault().Arm(harness.tombstone_fault().ops());
  harness.tombstones().Add("Pod/dropped", engine_.now());
  // The intent died with the process (never reached the table)...
  EXPECT_TRUE(harness.tombstone_fault().fired());
  EXPECT_FALSE(harness.tombstones().Has("Pod/dropped"));
  // ...and the deferred surprise shutdown lands on the next step.
  EXPECT_FALSE(harness.crashed());
  engine_.RunFor(Milliseconds(1));
  EXPECT_TRUE(harness.crashed());
  EXPECT_TRUE(harness.tombstones().empty());  // session-scoped (§4.3)
}

TEST_F(HarnessSeamTest, ClientFaultCountersResetPerIncarnation) {
  runtime::ControllerHarness harness(env_, runtime::Mode::kKd, Opts("ctrl"));
  runtime::ControllerHarness other(env_, runtime::Mode::kKd, Opts("other"));
  metrics_.Count("client.ctrl-client.retries_total", 3);
  metrics_.Count("client.other-client.retries_total", 7);

  // The initial Start is not a restart: counters survive.
  harness.Start();
  EXPECT_EQ(metrics_.GetCount("client.ctrl-client.retries_total"), 3);

  // Restart-after-crash zeroes this client's counters only.
  harness.Crash();
  harness.Restart();
  EXPECT_EQ(metrics_.GetCount("client.ctrl-client.retries_total"), 0);
  EXPECT_EQ(metrics_.GetCount("client.other-client.retries_total"), 7);
}

TEST_F(HarnessSeamTest, ArmBeforeFirstStartSurvivesStart) {
  runtime::ControllerHarness harness(env_, runtime::Mode::kKd, Opts("ctrl"));
  harness.handshake_fault().Arm(17);
  harness.Start();  // initial start must NOT disarm (arm-before-Boot)
  EXPECT_TRUE(harness.handshake_fault().armed());
  harness.Crash();
  harness.Restart();  // restart-after-crash must disarm
  EXPECT_FALSE(harness.handshake_fault().armed());
}

}  // namespace
}  // namespace kd
