// ActiveTracker: measures how long a component has work outstanding
// (the union of intervals where its pending count is > 0).
//
// This is the "time each controller would take if the upstream
// messages were instantaneous" measurement of the paper's Fig. 3
// breakdown: in a pipelined run, a stage's *span* inherits the
// slowest upstream stage, while its *active time* isolates its own
// throughput limit (rate limiter + processing).
#pragma once

#include <string_view>

#include "common/check.h"
#include "common/metrics.h"
#include "common/time.h"

namespace kd {

class ActiveTracker {
 public:
  // Records into `metrics` under `name`; a null recorder records
  // nothing.
  ActiveTracker(MetricsRecorder* metrics, std::string_view name)
      : busy_(metrics != nullptr ? metrics->ResolveBusy(name)
                                 : MetricsRecorder::Busy()) {}

  void Inc(Time now) {
    if (pending_ == 0) active_since_ = now;
    ++pending_;
  }

  void Dec(Time now) {
    KD_CHECK(pending_ > 0, "ActiveTracker::Dec without matching Inc");
    --pending_;
    if (pending_ == 0) busy_.Add(now - active_since_);
  }

  // Flattens state (crash/restart).
  void Reset(Time now) {
    if (pending_ > 0) busy_.Add(now - active_since_);
    pending_ = 0;
  }

  int pending() const { return pending_; }

 private:
  MetricsRecorder::Busy busy_;
  int pending_ = 0;
  Time active_since_ = 0;
};

}  // namespace kd
