#include "apiserver/rate_limiter.h"

#include <algorithm>

namespace kd::apiserver {

TokenBucket::TokenBucket(sim::Engine& engine, double qps, double burst)
    : engine_(engine), qps_(qps), burst_(burst), tokens_(burst) {}

void TokenBucket::Refill() {
  const Time now = engine_.now();
  if (now <= last_refill_) return;
  tokens_ = std::min(
      burst_, tokens_ + ToSeconds(now - last_refill_) * qps_);
  last_refill_ = now;
}

double TokenBucket::available() {
  Refill();
  return tokens_;
}

void TokenBucket::Acquire(std::function<void()> fn) {
  Refill();
  if (waiting_.empty() && tokens_ >= 1.0) {
    tokens_ -= 1.0;
    fn();
    return;
  }
  waiting_.push_back(std::move(fn));
  Pump();
}

void TokenBucket::Pump() {
  Refill();
  while (!waiting_.empty() && tokens_ >= 1.0) {
    tokens_ -= 1.0;
    std::function<void()> fn = std::move(waiting_.front());
    waiting_.pop_front();
    fn();
  }
  if (waiting_.empty()) return;
  if (pending_timer_ != sim::kInvalidEventId) return;
  // Sleep exactly until the next token matures.
  const double deficit = 1.0 - tokens_;
  // +1ns: avoid rounding short.
  const Duration wait = SecondsF(deficit / qps_) + 1;
  pending_timer_ = engine_.ScheduleAfter(wait, [this] {
    pending_timer_ = sim::kInvalidEventId;
    Pump();
  });
}

}  // namespace kd::apiserver
