// Exhaustive crash-point sweep: surprise-shutdown every control-plane
// write (the OCF surprise-shutdown harness shape, applied to the
// narrow waist).
//
// For each victim seam, arm injection point i, run the fixed
// mixed-workload scenario (the crash fires at the seam's operation
// #i), restart the victim, run to quiescence, assert the §4.4
// invariant battery — then advance i. Because a not-yet-fired seam is
// behaviorally inert, an armed run is byte-identical to the dry run
// up to the fire, so the sweep fires at every i below the seam's
// total operation count N and terminates with the first clean run at
// i == N: every operation the scenario performs at that seam has been
// crashed-on exactly once.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/strings.h"
#include "crashpoint/scenario.h"

namespace kd::crashpoint {
namespace {

class CrashPointSweepTest : public ::testing::TestWithParam<Victim> {};

TEST_P(CrashPointSweepTest, EverySweptPointSurvives) {
  const Victim victim = GetParam();

  // Advance i until a run completes with no fire.
  std::uint64_t i = 0;
  int fired = 0;
  for (;; ++i) {
    ASSERT_LT(i, 5000u) << VictimName(victim) << ": sweep did not terminate";
    SCOPED_TRACE(StrFormat("%s@%llu", VictimName(victim),
                           static_cast<unsigned long long>(i)));
    const ScenarioResult result = RunScenario(victim, i);
    if (::testing::Test::HasFatalFailure()) return;
    if (!result.fired) break;
    EXPECT_EQ(result.restarts, 1);
    ++fired;
  }
  EXPECT_GT(fired, 0) << VictimName(victim)
                      << ": scenario never exercises this seam";
  std::printf("[crashpoint] %s: swept %d points (%d fired, 1 clean run)\n",
              VictimName(victim), fired, fired);
}

INSTANTIATE_TEST_SUITE_P(
    Victims, CrashPointSweepTest,
    ::testing::Values(Victim::kEtcdPersist, Victim::kSchedulerHandshake,
                      Victim::kKubeletHandshake, Victim::kReplicaSetTombstone,
                      Victim::kSchedulerTombstone),
    [](const ::testing::TestParamInfo<Victim>& param_info) {
      std::string name = VictimName(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace kd::crashpoint
