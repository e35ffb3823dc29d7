// Deterministic discrete-event simulation engine.
//
// Everything in this repository — the API server, controllers, network
// links, FaaS requests — runs as callbacks scheduled on one Engine with
// a virtual clock. Two events at the same virtual time fire in the
// order they were scheduled (a monotone sequence number breaks ties),
// which makes every run bit-for-bit reproducible regardless of host
// load. That determinism is what lets the property tests replay exact
// failure interleavings from a seed.
//
// The event store (one LaneQueue, see sim/lane_queue.h) is a
// slot/generation arena plus one 4-ary (time, seq) min-heap: closures
// constructed in place in 64-byte slots, heap entries that name them.
// EventId encodes slot+generation, so Cancel is O(1) (the heap entry
// skims when it reaches the top) and stale ids (fired, cancelled,
// recycled) safely return false.
//
// Every event is tagged with the lane it executes in (see
// common/lane.h and sim/lane_checker.h): by default the lane of the
// context that scheduled it, or an explicit target lane for a
// cross-lane seam (ScheduleSeamAt/After). The tags feed only the
// debug-time lane checker; they never change fire order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/lane.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/lane_checker.h"
#include "sim/lane_queue.h"

namespace kd::sim {

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return queue_.now(); }

  // Schedules `fn` at absolute virtual time `t` (clamped to now).
  // Accepts any nullary callable; the closure is stored in place in
  // the event slot (see sim/lane_queue.h). The event inherits the lane
  // of the scheduling context, so lane membership flows through
  // closure chains (see sim/lane_checker.h).
  template <class F>
  EventId ScheduleAt(Time t, F&& fn) {
    return ScheduleInLane(lane_checker_.current_lane(), t,
                          std::forward<F>(fn));
  }

  // Schedules `fn` after `delay` from now (negative delays clamp to 0).
  template <class F>
  EventId ScheduleAfter(Duration delay, F&& fn) {
    return ScheduleAt(now() + (delay < 0 ? 0 : delay),
                      std::forward<F>(fn));
  }

  // Cross-lane seam schedule: ScheduleAt, except that the event
  // executes in `target_lane` instead of inheriting the scheduling
  // context's lane. Fire order is the same as ScheduleAt's.
  template <class F>
  EventId ScheduleSeamAt(LaneId target_lane, Time t, F&& fn) {
    return ScheduleInLane(target_lane, t, std::forward<F>(fn));
  }

  template <class F>
  EventId ScheduleSeamAfter(LaneId target_lane, Duration delay, F&& fn) {
    return ScheduleSeamAt(target_lane, now() + (delay < 0 ? 0 : delay),
                          std::forward<F>(fn));
  }

  // Lane of the context that scheduled the currently-executing event
  // (kNoLane outside events). A seam target uses this to learn who
  // called it — e.g. the API server captures the client's lane at
  // Serve() entry to route the completion back.
  LaneId seam_origin_lane() const { return firing_origin_; }

  // Cancels a pending event. Returns false if it already fired or was
  // already cancelled. Safe to call with kInvalidEventId.
  bool Cancel(EventId id);

  // Runs one event; returns false when the queue is empty.
  bool Step();

  // Runs until the queue drains or Stop() is called. Returns the number
  // of events processed.
  std::uint64_t Run();

  // Processes all events with time <= t, then advances the clock to t
  // (even if no event fired). Returns the number of events processed.
  std::uint64_t RunUntil(Time t);

  std::uint64_t RunFor(Duration d) { return RunUntil(now() + d); }

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stop_flag_ = true; }

  bool empty() const { return pending_events() == 0; }
  std::size_t pending_events() const { return queue_.live_events(); }
  std::uint64_t processed_events() const { return processed_; }

  // Hard cap on total events processed per Run*/Step sequence; guards
  // tests against livelock in buggy reconcile loops. 0 disables.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  bool hit_event_limit() const { return hit_event_limit_; }

  // The simulation-layer entropy source (kdlint R1: ambient entropy is
  // banned outside src/sim, so deterministic jitter — e.g. retry
  // backoff — draws from here). Seeded at construction; SeedRng makes
  // a run's stream reproducible from a test/bench seed.
  Rng& rng() { return rng_; }
  void SeedRng(std::uint64_t seed) { rng_.Seed(seed); }

  // Observer invoked as each event fires: (virtual time, scheduling
  // sequence number, event id). The determinism-replay regression test
  // fingerprints whole runs with it; it is unset (free) in normal use.
  using TraceHook = std::function<void(Time, std::uint64_t, EventId)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  // Debug-only lane-access checker (disabled by default; enabling it
  // never changes the event trace). See sim/lane_checker.h.
  LaneChecker& lane_checker() { return lane_checker_; }

 private:
  // EventId layout: slot+1 (high 32 bits) | generation (low 32 bits).
  // slot+1 keeps 0 == kInvalidEventId.
  static EventId MakeEventId(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot + 1) << 32) | generation;
  }

  template <class F>
  EventId ScheduleInLane(LaneId lane, Time t, F&& fn) {
    const std::uint32_t index = queue_.AcquireSlot();
    LaneQueue::Slot& slot = queue_.SlotAt(index);
    slot.lane = lane;
    slot.origin = lane_checker_.current_lane();
    LaneQueue::EmplaceClosure(slot, std::forward<F>(fn));
    queue_.Arm(index, t < now() ? now() : t, next_seq_++);
    return MakeEventId(index, slot.generation);
  }

  // Pops and fires events due by `limit` until the queue runs dry,
  // Stop() is called, or the event limit trips (shared by Run and
  // RunUntil). Returns the number fired.
  std::uint64_t RunLoop(Time limit);
  void Fire(const LaneQueue::Fired& fired);

  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t event_limit_ = 0;
  bool hit_event_limit_ = false;
  bool stop_flag_ = false;
  LaneId firing_origin_ = kNoLane;
  LaneQueue queue_;
  TraceHook trace_hook_;
  LaneChecker lane_checker_;
  Rng rng_;
};

}  // namespace kd::sim
