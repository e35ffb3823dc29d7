// Client-side token-bucket rate limiter, modelling client-go's
// flowcontrol.RateLimiter that every Kubernetes controller funnels its
// API calls through. The paper identifies this limiter as a primary
// reason controllers stall when passing many objects (§2.2): requests
// beyond the burst wait in FIFO order for tokens refilled at `qps`.
#pragma once

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

 private:
  void Refill();
  void Pump();

  sim::Engine& engine_;
  double qps_;
  double burst_;
  double tokens_;
  Time last_refill_ = 0;
  std::deque<std::function<void()>> waiting_;
  bool pending_timer_ = false;
};

}  // namespace kd::apiserver
