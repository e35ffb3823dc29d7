// Client-side token-bucket rate limiter, modelling client-go's
// flowcontrol.RateLimiter that every Kubernetes controller funnels its
// API calls through. The paper identifies this limiter as a primary
// reason controllers stall when passing many objects (§2.2): requests
// beyond the burst wait in FIFO order for tokens refilled at `qps`.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "common/time.h"
#include "sim/engine.h"

namespace kd::apiserver {

class TokenBucket {
 public:
  TokenBucket(sim::Engine& engine, double qps, double burst);

  // Runs `fn` as soon as a token is available (possibly immediately,
  // within the current event). FIFO across callers.
  void Acquire(std::function<void()> fn);

  // Tokens currently available (after refill to now).
  double available();

  // Total time Acquire()d callers spent waiting, for the benchmark
  // breakdowns that attribute latency to rate limiting.
  Duration total_wait() const { return total_wait_; }
  std::uint64_t total_acquired() const { return total_acquired_; }

 private:
  void Refill();
  void Pump();

  sim::Engine& engine_;
  double qps_;
  double burst_;
  double tokens_;
  Time last_refill_ = 0;
  struct Waiter {
    std::function<void()> fn;
    Time enqueued_at;
  };
  std::deque<Waiter> waiting_;
  sim::EventId pending_timer_ = sim::kInvalidEventId;
  Duration total_wait_ = 0;
  std::uint64_t total_acquired_ = 0;
};

}  // namespace kd::apiserver
