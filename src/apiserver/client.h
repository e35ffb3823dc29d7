// Per-controller API client: the path every Kubernetes API call takes
// in a stock controller. Charges, in order:
//   1. the client-side token-bucket rate limit (the §2.2 bottleneck);
//   2. client-side serialization of the request body;
//   3. network latency to the API server;
// then hands the request to the ApiServer, which charges its own
// queueing, etcd, and response costs before invoking the callback.
//
// Fault handling mirrors client-go: transport-level failures
// (kUnavailable from a crashed server, kDeadlineExceeded from one that
// is still down) are retried with capped exponential backoff and
// deterministic jitter drawn from the simulation engine's seeded RNG —
// never from ambient entropy (kdlint R1). Application-level outcomes
// (Conflict, NotFound, AlreadyExists, admission rejections) pass
// through untouched: they are the controller's business.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/rate_limiter.h"
#include "common/active_tracker.h"
#include "common/cost_model.h"
#include "common/lane.h"
#include "sim/lane_checker.h"

namespace kd::apiserver {

// Capped exponential backoff for transport-level API failures. Each
// retry re-pays the client's rate limiter, serialization, and network
// costs (it is a full new request).
struct RetryPolicy {
  // Total attempts, including the first (1 = no retries).
  int max_attempts = 6;
  // Delay before retry n is min(max_backoff, initial_backoff * 2^(n-1))
  // scaled by a jitter factor in [1 - jitter, 1 + jitter].
  Duration initial_backoff = Milliseconds(500);
  Duration max_backoff = Seconds(8);
  double jitter = 0.2;

  static RetryPolicy None() {
    RetryPolicy p;
    p.max_attempts = 1;
    return p;
  }
};

class KD_LANE_SEAM ApiClient {
 public:
  // qps/burst: this client's flowcontrol settings (controllers and
  // kubelets differ; see CostModel).
  // `metrics` (optional) receives "<client_name>.active" busy time: the
  // union of intervals with requests outstanding (queued in the rate
  // limiter, on the wire, or being served) — the isolated stage time of
  // the paper's breakdown figures — plus the retry counters
  // "client.<client_name>.{retries,giveups,deadline_exceeded}_total".
  ApiClient(sim::Engine& engine, ApiServer& server, std::string client_name,
            double qps, double burst, MetricsRecorder* metrics = nullptr,
            RetryPolicy retry = {});

  void Create(model::ApiObject obj,
              std::function<void(StatusOr<model::ApiObject>)> done);
  void Update(model::ApiObject obj,
              std::function<void(StatusOr<model::ApiObject>)> done);
  void Delete(const std::string& kind, const std::string& name,
              std::function<void(Status)> done);
  void Get(const std::string& kind, const std::string& name,
           std::function<void(StatusOr<model::ApiObject>)> done);
  // Lists `kind` with the store revision the snapshot was taken at
  // (reflectors diff a relist against it).
  void List(const std::string& kind,
            std::function<void(StatusOr<std::vector<model::ApiObject>>,
                               std::uint64_t revision)>
                done);

  // Abandons every in-flight call and retry chain: each completes with
  // kCancelled (trackers settle; nothing re-sends). Invoked when the
  // owning process surprise-shuts down — its queued retries must not
  // land writes after the crash, because no live incarnation would own
  // them (e.g. a dead kubelet's pod Create materializing a ghost
  // Running record nobody will ever delete).
  void AbandonPending() { ++generation_; }

  const std::string& name() const { return name_; }

  // Lane-checker seam: completion callbacks run re-scoped to the
  // owning component's lane. Without this, APF seat coupling leaks
  // lanes — the event that frees a server seat dispatches the next
  // queued request, so component A's response can fire inside an
  // event chain that started in component B's lane.
  void SetLane(LaneId lane) { lane_ = lane; }

 private:
  // Applies rate limit + client serialization + uplink latency, then
  // runs `send` (which must invoke a handler of the server). The server
  // has no runtime lane and owns no instrumented state, so `send` runs
  // in the lane of the event that reaches it; the reply comes back
  // through RetryCall's LaneScope.
  void Dispatch(std::size_t request_bytes, std::function<void()> send);

  static StatusCode ResultCode(const Status& s) { return s.code(); }
  template <typename T>
  static StatusCode ResultCode(const StatusOr<T>& s) {
    return s.ok() ? StatusCode::kOk : s.status().code();
  }
  // Composite results (e.g. list + revision) expose RetryCode().
  template <typename R>
  static auto ResultCode(const R& r) -> decltype(r.RetryCode()) {
    return r.RetryCode();
  }
  static bool Retryable(StatusCode code) {
    return code == StatusCode::kUnavailable ||
           code == StatusCode::kDeadlineExceeded;
  }

  void CountFault(const char* which);
  Duration BackoffDelay(int attempt);

  // Drives `issue` (one full request attempt) until it returns a
  // non-retryable result or the policy is exhausted. Pure pass-through
  // on the success path: no extra events, no extra cost. Every chain
  // is pinned to the generation it started in: AbandonPending() (the
  // owning process crashed) makes in-flight chains complete with
  // kCancelled instead of retrying — a dead process cannot re-send,
  // and letting its queued retries land later would manufacture writes
  // no live incarnation owns.
  template <typename Result>
  void RetryCall(std::function<void(std::function<void(Result)>)> issue,
                 std::function<void(Result)> done, int attempt) {
    if (attempt == 1) {  // wrap once, at the chain's head
      done = [this, inner = std::move(done)](Result result) {
        sim::LaneScope lane_scope(engine_.lane_checker(), lane_);
        inner(std::move(result));
      };
    }
    const std::uint64_t generation = generation_;
    issue([this, generation, issue, done = std::move(done), attempt](
              Result result) mutable {
      if (generation != generation_) {
        done(Result{CancelledError("caller abandoned the call")});
        return;
      }
      const StatusCode code = ResultCode(result);
      if (code == StatusCode::kDeadlineExceeded) {
        CountFault("deadline_exceeded_total");
      }
      if (!Retryable(code)) {
        done(std::move(result));
        return;
      }
      if (attempt >= retry_.max_attempts) {
        CountFault("giveups_total");
        done(std::move(result));
        return;
      }
      CountFault("retries_total");
      engine_.ScheduleAfter(
          BackoffDelay(attempt),
          [this, generation, issue = std::move(issue),
           done = std::move(done), attempt]() mutable {
            if (generation != generation_) {
              done(Result{CancelledError("caller abandoned the call")});
              return;
            }
            RetryCall<Result>(std::move(issue), std::move(done), attempt + 1);
          });
    });
  }

  sim::Engine& engine_;
  ApiServer& server_;
  std::string name_;
  TokenBucket limiter_;
  ActiveTracker tracker_;
  MetricsRecorder* metrics_;
  RetryPolicy retry_;
  std::uint64_t generation_ = 0;  // bumped by AbandonPending()
  LaneId lane_ = kNoLane;         // completion-callback lane (SetLane)
};

}  // namespace kd::apiserver
