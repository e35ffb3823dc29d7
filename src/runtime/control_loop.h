// The work queue + control loop (steps ③-⑤ of Fig. 4).
//
// Event handlers push object keys; the loop dequeues them one at a
// time, charges the reconcile cost in simulated time, and invokes the
// controller-specific reconciler. Keys are de-duplicated while queued
// (Kubernetes workqueue semantics), which is what makes controllers
// level-triggered: many notifications for one object collapse into one
// reconcile of its *latest* state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_set>

#include "common/active_tracker.h"
#include "common/cost_model.h"
#include "common/lane.h"
#include "common/metrics.h"
#include "sim/engine.h"

namespace kd::runtime {

class KD_LANE_SEAM ControlLoop {
 public:
  // `reconcile` returns the extra busy time its logic consumed beyond
  // the base reconcile cost (e.g. the Scheduler's node scan).
  using Reconciler = std::function<Duration(const std::string& key)>;

  ControlLoop(sim::Engine& engine, const CostModel& cost, std::string name,
              MetricsRecorder* metrics = nullptr);

  void SetReconciler(Reconciler reconcile) {
    reconcile_ = std::move(reconcile);
  }

  // Enqueues a key; no-op if already queued (dedup).
  void Enqueue(const std::string& key);
  // Re-enqueues after a delay (error backoff / requeue-after).
  void EnqueueAfter(const std::string& key, Duration delay);

  // Crash support: drops all queued work and ignores the in-flight
  // dispatch. Safe to Enqueue again right away (restart).
  void Clear();

  bool idle() const { return queue_.empty() && !dispatch_scheduled_; }
  std::uint64_t processed() const { return processed_; }
  const std::string& name() const { return name_; }

  // Lane-checker seam: Dispatch re-scopes to this lane before running
  // the reconciler, so reconcile code always executes in its
  // component's lane regardless of which event enqueued the key.
  void SetLane(LaneId lane) { lane_ = lane; }

 private:
  void ScheduleDispatch(Time at);
  void Dispatch(std::uint64_t generation);

  sim::Engine& engine_;
  const CostModel& cost_;
  std::string name_;
  MetricsRecorder* metrics_;
  Reconciler reconcile_;
  std::deque<std::string> queue_;
  // Membership-only dedup set; never iterated, so hashing order is
  // irrelevant to determinism.
  std::unordered_set<std::string> queued_keys_;
  // High-water mark of the queue depth, recorded as the
  // "<name>.queue_depth_max" gauge in the MetricsRecorder.
  std::size_t depth_max_ = 0;
  bool dispatch_scheduled_ = false;
  // Bumped by Clear(); stale dispatch events check it and abort.
  std::uint64_t generation_ = 0;
  std::uint64_t processed_ = 0;
  LaneId lane_ = kNoLane;
  Time busy_until_ = 0;
  // "<name>.active" busy time: union of intervals with queued or
  // executing work (the isolated stage time of the breakdown figures).
  ActiveTracker tracker_;
};

}  // namespace kd::runtime
