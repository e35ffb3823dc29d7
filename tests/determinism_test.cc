// Determinism-replay regression tests.
//
// The whole repository depends on one invariant: a fixed-seed run is
// bit-for-bit reproducible, because event ordering is fully determined
// by (virtual time, scheduling sequence). These tests freeze that
// contract through the engine's trace hook: a full-fidelity Kd cluster
// scenario and a FaaS trace replay are each run twice in-process and
// their complete event traces must be byte-identical. They are the
// safety net for any event-queue rewrite — a queue that reorders ties,
// drops events, or fires one twice changes the trace.
//
// The traces fingerprint (time, seq), the event's identity. Each test
// prints an FNV-1a fingerprint of its trace and checks it against the
// golden value pinned below: host-side optimisations must leave
// simulated time byte-identical, so a fingerprint that moves means the
// simulation itself changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/strings.h"
#include "crashpoint/scenario.h"
#include "golden_walks.h"
#include "sim/engine.h"

namespace kd {
namespace {

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

struct Golden {
  const char* trace;
  std::uint64_t fingerprint;
};
constexpr Golden kGolden[] = {
    {"kd-cluster", 0x4bf29dcd6393ed66ull},
    {"faas-replay", 0x878fe408407f5b1bull},
    {"crashpoint etcd-persist@4", 0x857d6c6591a3c835ull},
    {"crashpoint scheduler-handshake@3", 0x060f478d8750c0bcull},
    {"crashpoint replicaset-tombstone@1", 0xaea38a2dce25068eull},
};

void ExpectGoldenFingerprint(const std::string& trace, std::uint64_t actual) {
  for (const Golden& golden : kGolden) {
    if (trace != golden.trace) continue;
    EXPECT_EQ(Hex(actual), Hex(golden.fingerprint)) << trace;
    return;
  }
  ADD_FAILURE() << "no golden fingerprint for " << trace;
}

TEST(DeterminismTest, KdClusterTraceIsByteIdenticalAcrossRuns) {
  const std::string first = golden::KdClusterTrace();
  const std::string second = golden::KdClusterTrace();
  ASSERT_FALSE(first.empty());
  EXPECT_GT(first.size(), 10'000u) << "scenario too small to be a safety net";
  EXPECT_EQ(first, second);
  std::printf("[trace] kd-cluster: %zu bytes, fingerprint %016llx\n",
              first.size(),
              static_cast<unsigned long long>(Fnv1a(first)));
  ExpectGoldenFingerprint("kd-cluster", Fnv1a(first));
}

TEST(DeterminismTest, FaasReplayTraceIsByteIdenticalAcrossRuns) {
  const std::string first = golden::FaasReplayTrace();
  const std::string second = golden::FaasReplayTrace();
  ASSERT_FALSE(first.empty());
  EXPECT_GT(first.size(), 10'000u) << "scenario too small to be a safety net";
  EXPECT_EQ(first, second);
  std::printf("[trace] faas-replay: %zu bytes, fingerprint %016llx\n",
              first.size(),
              static_cast<unsigned long long>(Fnv1a(first)));
  ExpectGoldenFingerprint("faas-replay", Fnv1a(first));
}

// --- Crash-point injection determinism --------------------------------
// The crash-point scenario takes no seed — (victim, index) fully
// determines the run. Two runs with the same injection point must
// produce byte-identical event traces: the sweep's reproducibility
// (replay any failing point by its index alone) depends on it.

class CrashPointDeterminismTest
    : public ::testing::TestWithParam<
          std::pair<crashpoint::Victim, std::uint64_t>> {};

TEST_P(CrashPointDeterminismTest, SameInjectionPointIsByteIdentical) {
  const auto& [victim, index] = GetParam();
  std::string first;
  const crashpoint::ScenarioResult result =
      crashpoint::RunScenario(victim, index, &first);
  if (::testing::Test::HasFatalFailure()) return;
  std::string second;
  crashpoint::RunScenario(victim, index, &second);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  std::printf("[trace] crashpoint %s@%llu: %zu bytes, fired=%d, "
              "fingerprint %016llx\n",
              crashpoint::VictimName(victim),
              static_cast<unsigned long long>(index), first.size(),
              result.fired ? 1 : 0,
              static_cast<unsigned long long>(Fnv1a(first)));
  ExpectGoldenFingerprint(
      StrFormat("crashpoint %s@%llu", crashpoint::VictimName(victim),
                static_cast<unsigned long long>(index)),
      Fnv1a(first));
}

INSTANTIATE_TEST_SUITE_P(
    Points, CrashPointDeterminismTest,
    ::testing::Values(
        std::make_pair(crashpoint::Victim::kEtcdPersist, std::uint64_t{4}),
        std::make_pair(crashpoint::Victim::kSchedulerHandshake,
                       std::uint64_t{3}),
        std::make_pair(crashpoint::Victim::kReplicaSetTombstone,
                       std::uint64_t{1})));

// A disarmed seam is behaviorally inert, and an armed-but-unfired one
// is identical to it: the no-fault trace must match a dry run exactly
// — this is what keeps the repo's baseline fingerprints stable while
// the seams sit in the hot paths.
TEST(DeterminismTest, UnfiredCrashSeamLeavesTraceUntouched) {
  std::string dry;
  crashpoint::RunScenario(crashpoint::Victim::kEtcdPersist,
                          crashpoint::kNoFault, &dry);
  if (::testing::Test::HasFatalFailure()) return;
  // Armed far past anything the scenario reaches: never fires.
  std::string armed;
  const crashpoint::ScenarioResult result = crashpoint::RunScenario(
      crashpoint::Victim::kEtcdPersist, std::uint64_t{1} << 40, &armed);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_FALSE(result.fired);
  EXPECT_EQ(dry, armed);
}

TEST(DeterminismTest, TraceHookReportsMonotoneTimeAndDistinctSeq) {
  sim::Engine engine;
  Time last_time = -1;
  std::uint64_t last_seq = 0;
  int calls = 0;
  engine.set_trace_hook([&](Time t, std::uint64_t seq, sim::EventId id) {
    EXPECT_GE(t, last_time);
    EXPECT_GT(seq, 0u);
    EXPECT_NE(seq, last_seq);
    EXPECT_EQ(id, seq);
    last_time = t;
    last_seq = seq;
    ++calls;
  });
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAfter(i % 3, [] {});
  }
  engine.Run();
  EXPECT_EQ(calls, 10);
}

}  // namespace
}  // namespace kd
