// The FaaS gateway / request router (the downstream data plane of
// Fig. 2): routes invocations to ready instances, queues excess
// requests until upscaling delivers capacity ("cold starts"), and
// records the per-request metrics of §6.2.
//
// Instances are identified by their endpoint address (pod IP). Each
// instance serves `concurrency` requests at once; a request occupies a
// slot for its requested duration (the SQRTSD busy loop of the paper's
// workload).
#pragma once

#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lane.h"
#include "common/metrics.h"
#include "common/time.h"
#include "faas/types.h"
#include "sim/engine.h"

namespace kd::faas {

class KD_LANE_OWNED(faas) Gateway {
 public:
  Gateway(sim::Engine& engine, Duration route_latency = MicrosecondsF(200));

  // A registered function's handle: its name resolved once. Handles
  // are dense indexes in registration order and stay valid for the
  // gateway's lifetime, so the autoscaler's per-evaluation reads never
  // look a function up by name.
  using FunctionId = std::size_t;

  // Registers `spec` and returns its handle. Registering a name again
  // replaces its spec and returns the same handle.
  FunctionId RegisterFunction(const FunctionSpec& spec);

  // Full-list endpoint update from the discovery path (Backend sink).
  void UpdateEndpoints(const std::string& function,
                       const std::vector<std::string>& addresses);

  // Abrupt instance loss (spot reclamation): unlike the graceful
  // retirement of UpdateEndpoints, the instances die NOW — their
  // in-flight requests are pushed back to the head of the queue and
  // re-dispatched to surviving capacity, so no invocation is lost (it
  // just pays the retry as extra scheduling latency). Returns the
  // number of instances removed.
  std::size_t FailInstances(const std::vector<std::string>& addresses);

  // A request arrives. Dispatches immediately if an instance has a
  // free slot; otherwise queues (the request will be started when
  // capacity appears — a cold start if that capacity is a new
  // instance).
  void Invoke(Invocation inv);

  // Executing + queued requests: what is still pending for `function`.
  std::int64_t Demand(const std::string& function) const;
  // The autoscaler's reads, through the handle RegisterFunction gave.
  std::int64_t Queued(FunctionId function) const;
  std::int64_t Executing(FunctionId function) const;
  std::size_t EndpointCount(const std::string& function) const;
  // Live (non-retired) instance addresses — what the gateway would
  // route to right now (the SloGuard's endpoint-staleness probe).
  std::vector<std::string> Endpoints(const std::string& function) const;

  // Fires when a request queues because no instance had a free slot —
  // the autoscaler's fast-path trigger (Knative's activator).
  void set_on_queued(std::function<void(const std::string& function)> cb) {
    on_queued_ = std::move(cb);
  }

  // Completed request records (append-only).
  const std::vector<RequestRecord>& records() const { return records_; }
  std::uint64_t total_invocations() const { return total_invocations_; }
  std::uint64_t queued_starts() const { return queued_starts_; }
  std::uint64_t instances_failed() const { return instances_failed_; }
  std::uint64_t requeued_on_failure() const { return requeued_on_failure_; }

 private:
  struct Instance {
    int busy = 0;       // occupied slots
    bool retired = false;  // removed from endpoints; drains, no new work
    // In-flight invocations by request id — what FailInstances pushes
    // back to the queue when the instance dies abruptly. A request's
    // completion timer only records if its id is still present here.
    std::map<std::uint64_t, Invocation> inflight;
  };
  struct PendingRequest {
    Invocation inv;
  };
  struct FunctionState {
    FunctionId id = 0;
    FunctionSpec spec;
    std::map<std::string, Instance> instances;
    std::deque<PendingRequest> queue;
    std::int64_t executing = 0;
  };

  void Dispatch(FunctionState& state);
  // Starts `inv` on `address` now.
  void StartOn(FunctionState& state, const std::string& address,
               Invocation inv, bool was_queued);
  std::string FindFreeInstance(const FunctionState& state) const;
  const FunctionState& State(FunctionId function) const;
  // The named function's state, or nullptr if it is not registered.
  FunctionState* Find(const std::string& function);
  const FunctionState* Find(const std::string& function) const;

  sim::Engine& engine_;
  Duration route_latency_;
  std::function<void(const std::string&)> on_queued_;
  // By name, in name order (the order FailInstances walks). Map nodes
  // never move, so by_id_, by_name_ and the completion timers point
  // into it.
  std::map<std::string, FunctionState> functions_;
  std::vector<FunctionState*> by_id_;
  // The by-name calls' index: hashed, never iterated.
  std::unordered_map<std::string, FunctionState*> by_name_;
  std::vector<RequestRecord> records_;
  std::uint64_t total_invocations_ = 0;
  std::uint64_t queued_starts_ = 0;
  std::uint64_t instances_failed_ = 0;
  std::uint64_t requeued_on_failure_ = 0;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace kd::faas
