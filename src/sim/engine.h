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
// The event store (one LaneQueue, see sim/lane_queue.h) is a slot
// arena plus one 4-ary (time, seq) min-heap: closures constructed in
// place in 64-byte slots, heap entries that name them. The engine only
// schedules and fires: an event cannot be cancelled. A component that
// changes its mind lets the event fire and drops it through a captured
// session, epoch or generation (e.g. ControlLoop::EnqueueAfter). A
// closure's captures are destroyed right after it fires, or with the
// engine if it is still pending then.
//
// Every event is tagged with the lane of the context that scheduled it
// (see common/lane.h and sim/lane_checker.h); a seam's LaneScope moves
// the receiving code into the receiver's lane. The tags feed only the
// lane checker; they never change fire order.
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

// The trace hook's third parameter, which is the event's seq. Kept only
// because perfbench/kdbench.cc, which is frozen, names it in its hook
// lambda.
using EventId = std::uint64_t;

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
  void ScheduleAt(Time t, F&& fn) {
    const std::uint32_t index = queue_.AcquireSlot();
    LaneQueue::Slot& slot = queue_.SlotAt(index);
    slot.lane = lane_checker_.current_lane();
    LaneQueue::EmplaceClosure(slot, std::forward<F>(fn));
    queue_.Arm(index, t < now() ? now() : t, next_seq_++);
  }

  // Schedules `fn` after `delay` from now (negative delays clamp to 0).
  template <class F>
  void ScheduleAfter(Duration delay, F&& fn) {
    ScheduleAt(now() + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

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
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t processed_events() const { return processed_; }

  // Hard cap on total events processed per Run*/Step sequence; guards
  // tests against livelock in buggy reconcile loops. 0 disables.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  // The simulation-layer entropy source (kdlint R1: ambient entropy is
  // banned outside src/sim, so deterministic jitter — e.g. retry
  // backoff — draws from here). Seeded at construction; SeedRng makes
  // a run's stream reproducible from a test/bench seed.
  Rng& rng() { return rng_; }
  void SeedRng(std::uint64_t seed) { rng_.Seed(seed); }

  // Observer invoked as each event fires: (virtual time, scheduling
  // sequence number, the same sequence number as an EventId). The
  // determinism-replay regression test fingerprints whole runs with
  // it; it is unset (free) in normal use.
  using TraceHook = std::function<void(Time, std::uint64_t, EventId)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  // The lane-ownership checker. It is always on and never changes the
  // event trace; see sim/lane_checker.h.
  LaneChecker& lane_checker() { return lane_checker_; }

 private:
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
  LaneQueue queue_;
  TraceHook trace_hook_;
  LaneChecker lane_checker_;
  Rng rng_;
};

}  // namespace kd::sim
