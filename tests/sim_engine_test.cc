// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/engine.h"

namespace kd::sim {
namespace {

TEST(EngineTest, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(Milliseconds(20), [&] { order.push_back(2); });
  e.ScheduleAt(Milliseconds(10), [&] { order.push_back(1); });
  e.ScheduleAt(Milliseconds(30), [&] { order.push_back(3); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), Milliseconds(30));
}

TEST(EngineTest, TiesBreakBySchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, ScheduleAfterUsesCurrentTime) {
  Engine e;
  Time fired_at = -1;
  e.ScheduleAt(Milliseconds(10), [&] {
    e.ScheduleAfter(Milliseconds(5), [&] { fired_at = e.now(); });
  });
  e.Run();
  EXPECT_EQ(fired_at, Milliseconds(15));
}

TEST(EngineTest, PastTimesClampToNow) {
  Engine e;
  e.ScheduleAt(Milliseconds(10), [&] {
    e.ScheduleAt(Milliseconds(1),
                 [&] { EXPECT_EQ(e.now(), Milliseconds(10)); });
  });
  e.Run();
  EXPECT_EQ(e.now(), Milliseconds(10));
}

TEST(EngineTest, NegativeDelayClampsToZero) {
  Engine e;
  bool fired = false;
  e.ScheduleAfter(-5, [&] { fired = true; });
  e.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), 0);
}

TEST(EngineTest, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.RunUntil(Seconds(5));
  EXPECT_EQ(e.now(), Seconds(5));
}

TEST(EngineTest, RunUntilLeavesFutureEvents) {
  Engine e;
  bool early = false, late = false;
  e.ScheduleAt(Milliseconds(10), [&] { early = true; });
  e.ScheduleAt(Milliseconds(100), [&] { late = true; });
  e.RunUntil(Milliseconds(50));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(e.now(), Milliseconds(50));
  EXPECT_EQ(e.pending_events(), 1u);
  e.Run();
  EXPECT_TRUE(late);
}

TEST(EngineTest, RunForIsRelative) {
  Engine e;
  e.RunUntil(Milliseconds(10));
  bool fired = false;
  e.ScheduleAfter(Milliseconds(5), [&] { fired = true; });
  e.RunFor(Milliseconds(5));
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), Milliseconds(15));
}

TEST(EngineTest, StopHaltsRun) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(i, [&] {
      ++count;
      if (count == 3) e.Stop();
    });
  }
  e.Run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.pending_events(), 7u);
}

TEST(EngineTest, EventsCanScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.ScheduleAfter(1, recurse);
  };
  e.ScheduleAfter(0, recurse);
  e.Run();
  EXPECT_EQ(depth, 100);
}

TEST(EngineTest, EventLimitGuardsLivelock) {
  Engine e;
  e.set_event_limit(50);
  std::function<void()> forever = [&] { e.ScheduleAfter(1, forever); };
  e.ScheduleAfter(0, forever);
  e.Run();
  // Run() returned with the loop's next event still pending.
  EXPECT_EQ(e.processed_events(), 50u);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(EngineTest, StepProcessesOneEvent) {
  Engine e;
  int count = 0;
  e.ScheduleAt(1, [&] { ++count; });
  e.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(e.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.Step());
}

// Counts its live copies, so a test sees when the engine destroys the
// captures of a closure that holds one.
class LiveCopies {
 public:
  explicit LiveCopies(int* live) : live_(live) { ++*live_; }
  LiveCopies(const LiveCopies& other) : live_(other.live_) { ++*live_; }
  LiveCopies& operator=(const LiveCopies&) = delete;
  ~LiveCopies() { --*live_; }

 private:
  int* live_;
};

// A closure's captures die right after it fires, or with the engine if
// it is still pending then, whether it sits in its slot or is boxed.
TEST(EngineTest, DestroysClosuresAfterFiringOrWithTheEngine) {
  int live = 0;
  {
    Engine e;
    for (int i = 0; i < 4; ++i) {
      e.ScheduleAt(Milliseconds(1), [copy = LiveCopies(&live)] {});
      auto boxed = [copy = LiveCopies(&live),
                    pad = std::array<char, LaneQueue::kInlineClosureBytes>{}] {
        static_cast<void>(pad);
      };
      static_assert(sizeof(boxed) > LaneQueue::kInlineClosureBytes);
      e.ScheduleAt(Milliseconds(10), std::move(boxed));
    }
    EXPECT_EQ(live, 8);
    e.RunUntil(Milliseconds(5));
    EXPECT_EQ(e.processed_events(), 4u);
    EXPECT_EQ(live, 4);
  }
  EXPECT_EQ(live, 0);
}

// Fire-order oracle. A seeded walk drives the engine through
// schedules (many from inside firing events), Step, RunUntil and Stop.
// The reference is the sorted set of pending (time, seq) pairs: every
// fired event must be its minimum, and after every call
// pending_events() and now() must agree with it. Delays are drawn from
// the four classes the simulator's traffic has: zero, under 8.2 us,
// 10 us to 50 ms, and 1 to 60 s.
class FireOrderWalk {
 public:
  explicit FireOrderWalk(std::uint64_t seed) : rng_(seed) {
    engine_.set_trace_hook([this](Time t, std::uint64_t seq, EventId id) {
      OnFire(t, seq, id);
    });
  }

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) {
      Step();
      EXPECT_EQ(engine_.pending_events(), live_.size()) << "step " << i;
      EXPECT_EQ(engine_.empty(), live_.empty()) << "step " << i;
      EXPECT_EQ(engine_.processed_events(), fired_total_) << "step " << i;
      if (::testing::Test::HasFailure()) return;
    }
    // Not vacuous: events fired, and the walk ended calls both ways
    // (drained and stopped).
    EXPECT_GT(fired_total_, 1000u);
    EXPECT_GT(stops_, 10u);
  }

 private:
  using Key = std::pair<Time, std::uint64_t>;  // (time, seq)

  Duration DrawDelay() {
    switch (rng_.UniformInt(4)) {
      case 0:
        return 0;
      case 1:
        return rng_.UniformRange(1, 8191);
      case 2:
        return rng_.UniformRange(Microseconds(10), Milliseconds(50));
      default:
        return rng_.UniformRange(Seconds(1), Seconds(60));
    }
  }

  void Schedule() {
    const Duration delay = DrawDelay();
    const std::uint64_t seq = times_.size();  // the engine counts from 1
    const auto fire = [this, seq] { OnEvent(seq); };
    // One in eight asks for a time in the past, which clamps to now.
    const bool past = rng_.UniformInt(8) == 0;
    if (past) {
      engine_.ScheduleAt(engine_.now() - delay, fire);
    } else {
      engine_.ScheduleAfter(delay, fire);
    }
    times_.push_back(engine_.now() + (past ? 0 : delay));
    live_.emplace(times_.back(), seq);
  }

  void OnFire(Time t, std::uint64_t seq, EventId id) {
    ASSERT_FALSE(live_.empty()) << "fired (" << t << ", " << seq << ")";
    EXPECT_EQ(Key(t, seq), *live_.begin());
    EXPECT_LE(t, limit_);
    EXPECT_EQ(t, engine_.now());
    EXPECT_EQ(id, seq);
    live_.erase(Key(t, seq));
    last_fire_ = t;
    ++fired_in_call_;
    ++fired_total_;
  }

  void OnEvent(std::uint64_t seq) {
    EXPECT_EQ(engine_.now(), times_[seq]);
    // Children: 0.55 on average, so a cascade dies out.
    const std::uint64_t roll = rng_.UniformInt(20);
    const int children = roll < 9 ? 0 : roll < 18 ? 1 : 2;
    for (int c = 0; c < children; ++c) Schedule();
    if (rng_.UniformInt(40) == 0) {
      engine_.Stop();
      stopped_ = true;
    }
  }

  void Step() {
    const Time before = engine_.now();
    fired_in_call_ = 0;
    stopped_ = false;
    switch (rng_.UniformInt(7)) {
      case 0:
      case 1:
      case 2: {
        const std::uint64_t n = 1 + rng_.UniformInt(4);
        for (std::uint64_t i = 0; i < n; ++i) Schedule();
        break;
      }
      case 3: {
        limit_ = std::numeric_limits<Time>::max();
        const bool had_live = !live_.empty();
        const bool ran = engine_.Step();
        EXPECT_EQ(ran, had_live);
        EXPECT_EQ(fired_in_call_, ran ? 1u : 0u);
        if (ran) {
          EXPECT_EQ(engine_.now(), last_fire_);
        } else {
          // Nothing live was left. The clock may only have moved
          // within the times already armed.
          EXPECT_GE(engine_.now(), before);
          EXPECT_LE(engine_.now(), LatestArmed(before));
        }
        break;
      }
      default: {
        // Mostly forward, sometimes to a time already passed.
        const Duration delay = DrawDelay();
        const Time target = rng_.UniformInt(10) == 0 ? before - delay
                                                     : before + delay;
        limit_ = target;
        const std::uint64_t n = engine_.RunUntil(target);
        EXPECT_EQ(n, fired_in_call_);
        if (stopped_) {
          ++stops_;
          EXPECT_EQ(engine_.now(), last_fire_);
        } else {
          EXPECT_TRUE(live_.empty() || live_.begin()->first > target);
          EXPECT_EQ(engine_.now(), std::max(before, target));
        }
        break;
      }
    }
  }

  Time LatestArmed(Time floor) const {
    Time latest = floor;
    for (const Time t : times_) latest = std::max(latest, t);
    return latest;
  }

  Engine engine_;
  Rng rng_;
  // Each event's time, indexed by seq; entry 0 stands for the engine's
  // unused seq 0.
  std::vector<Time> times_{0};
  std::set<Key> live_;
  Time limit_ = 0;
  Time last_fire_ = 0;
  std::uint64_t fired_in_call_ = 0;
  std::uint64_t fired_total_ = 0;
  std::uint64_t stops_ = 0;
  bool stopped_ = false;
};

class FireOrderOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FireOrderOracleTest, FiresInSortedTimeSeqOrder) {
  FireOrderWalk walk(GetParam());
  walk.Run(/*steps=*/3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FireOrderOracleTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace kd::sim
