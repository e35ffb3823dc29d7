#include "sim/engine.h"

#include <limits>

namespace kd::sim {

namespace {
constexpr std::uint64_t kDefaultRngSeed = 0x9E3779B97F4A7C15ULL;
}  // namespace

Engine::Engine() : rng_(kDefaultRngSeed) {}

void Engine::Fire(const LaneQueue::Fired& fired) {
  LaneQueue::Slot& slot = queue_.SlotAt(fired.slot);
  ++processed_;
  if (trace_hook_) trace_hook_(now(), fired.seq, fired.seq);
  // Restore the event's lane for the lane checker; the guard resets it
  // when the closure unwinds (normally or by throw) so no lane leaks
  // into engine-internal code between events.
  lane_checker_.BeginEvent(now(), fired.seq, slot.lane);
  struct FireGuard {
    Engine* engine;
    std::uint32_t index;
    ~FireGuard() {
      engine->lane_checker_.SetCurrentLane(kNoLane);
      LaneQueue::DestroyClosure(engine->queue_.SlotAt(index));
      engine->queue_.FreeSlot(index);
    }
  } guard{this, fired.slot};
  slot.invoke(slot.closure);
}

bool Engine::Step() {
  LaneQueue::Fired fired;
  if (!queue_.PopDue(std::numeric_limits<Time>::max(), fired)) return false;
  Fire(fired);
  return true;
}

std::uint64_t Engine::RunLoop(Time limit) {
  stop_flag_ = false;
  hit_event_limit_ = false;
  std::uint64_t n = 0;
  while (!stop_flag_) {
    if (event_limit_ != 0 && n >= event_limit_) {
      hit_event_limit_ = true;
      break;
    }
    LaneQueue::Fired fired;
    if (!queue_.PopDue(limit, fired)) break;
    Fire(fired);
    ++n;
  }
  return n;
}

std::uint64_t Engine::Run() {
  return RunLoop(std::numeric_limits<Time>::max());
}

std::uint64_t Engine::RunUntil(Time t) {
  const std::uint64_t n = RunLoop(t);
  // Advance the clock to t even when no event fired there. Skipped
  // after Stop() or when the event limit tripped: events earlier than
  // t may still be pending, and the clock must not pass pending work.
  if (!stop_flag_ && !hit_event_limit_ && now() < t) queue_.AdvanceTo(t);
  return n;
}

}  // namespace kd::sim
