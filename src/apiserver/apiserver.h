// The Kubernetes API server + etcd model: the single source of truth
// controllers collaborate through in stock Kubernetes, and the
// bottleneck KubeDirect bypasses.
//
// What is modelled (because the paper's measurements depend on it):
//   - optimistic concurrency: every object carries a resourceVersion;
//     updates against a stale version fail with Conflict;
//   - persistence: every write pays an etcd raft-commit/fsync latency,
//     serialized through a single leader with group commit;
//   - pub-sub: watchers subscribe per kind and receive ordered
//     Added/Modified/Deleted events after a delivery latency;
//   - request service: a bounded worker pool; requests queue when the
//     server is saturated (the "high load on the API Server" effect of
//     Fig. 11);
//   - admission control: registered hooks can reject writes — used by
//     KubeDirect's exclusive-ownership guard (§5).
//
// Costs are charged in simulated time from the shared CostModel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <string>
#include <vector>

#include "apiserver/apf.h"
#include "common/check.h"
#include "common/cost_model.h"
#include "common/fault_point.h"
#include "common/lane.h"
#include "common/metrics.h"
#include "common/status.h"
#include "model/objects.h"
#include "sim/engine.h"

namespace kd::apiserver {

enum class WatchEventType { kAdded, kModified, kDeleted };

struct WatchEvent {
  WatchEventType type;
  model::ApiObject object;
};

using WatchCallback = std::function<void(const WatchEvent&)>;
// Server-side watch filter (a field selector); null passes everything.
using WatchFilter = std::function<bool(const model::ApiObject&)>;
// Invoked once when the server crashes and the watch stream dies; the
// subscriber must re-Watch (and re-list) after the server returns.
using WatchBreakCallback = std::function<void()>;
using WatchId = std::uint64_t;

// Synchronous store-commit observer: sees every committed mutation of
// the store (creates, updates, deletes, seeds) just before its watch
// fan-out. `before` is null for creates, `after` null for deletes. It
// runs inside the commit, schedules nothing and costs no simulated
// time — the seam for host-side derived state (Cluster's ready counts).
using CommitObserver = std::function<void(const model::ApiObject* before,
                                          const model::ApiObject* after)>;

enum class AdmissionOp { kCreate, kUpdate, kDelete };

// Admission hook: may veto a write. `existing` is null for creates,
// `incoming` is null for deletes.
using AdmissionHook = std::function<Status(
    AdmissionOp op, const model::ApiObject* existing,
    const model::ApiObject* incoming)>;

class KD_LANE_OWNED(apiserver) ApiServer {
 public:
  ApiServer(sim::Engine& engine, CostModel cost);

  // --- server-side request handlers ----------------------------------
  // Invoked by ApiClient after client-side costs; `done` fires after
  // the response has travelled back. `flow` is the APF flow identity
  // (the client name).
  void HandleCreate(const std::string& flow, model::ApiObject obj,
                    std::function<void(StatusOr<model::ApiObject>)> done);
  // Optimistic concurrency: obj.resource_version must match the stored
  // version or the update fails with kConflict.
  void HandleUpdate(const std::string& flow, model::ApiObject obj,
                    std::function<void(StatusOr<model::ApiObject>)> done);
  void HandleDelete(const std::string& flow, const std::string& kind,
                    const std::string& name, std::function<void(Status)> done);
  void HandleGet(const std::string& flow, const std::string& kind,
                 const std::string& name,
                 std::function<void(StatusOr<model::ApiObject>)> done);
  // Lists `kind` and reports the store revision the snapshot was taken
  // at — what a reflector needs to diff a relist against its cache
  // (absence of a key with revision <= the snapshot's means deleted).
  void HandleList(
      const std::string& flow, const std::string& kind,
      std::function<void(StatusOr<std::vector<model::ApiObject>>,
                         std::uint64_t revision)>
          done);

  // --- watch ------------------------------------------------------------
  // Registration is free (control-plane setup); events are delivered
  // with watch_delivery_latency, in commit order per watcher.
  // Returns 0 (no registration) while the server is down.
  WatchId Watch(const std::string& kind, WatchCallback cb);
  // Server-side filtered watch (field selectors — how each Kubelet
  // subscribes to only the Pods bound to its node). Delete events are
  // matched against the last state, which carried the field.
  // `on_break` (optional) fires when the server crashes and the stream
  // dies with it. Deliveries run in the committing event's lane; the
  // subscriber scopes them to its own (runtime::Informer does).
  WatchId Watch(const std::string& kind, WatchFilter filter, WatchCallback cb,
                WatchBreakCallback on_break = nullptr);
  void Unwatch(WatchId id);

  // --- fault injection ------------------------------------------------
  // Crash(): the process dies. Every in-flight request fails with
  // kUnavailable (the client's connection resets), every watch breaks
  // (on_break fires after the delivery latency), queued work is lost.
  // The etcd store — every *committed* write, with its
  // resourceVersions — survives. Requests arriving while down hang
  // until the client-side api_request_deadline, then fail with
  // kDeadlineExceeded. Restart() brings a fresh process up over the
  // persisted store; watchers must re-subscribe.
  void Crash();
  void Restart();
  bool up() const { return up_; }

  // Numbered-operation crash seam: every write that passes validation
  // ticks twice — once just before the store mutation (armed: the
  // crash loses the write, "the fsync never landed") and once just
  // after it and its watch broadcast (armed: the write is durable but
  // the response and the broadcast die with the process — committed
  // yet unacknowledged). Restart() disarms (the injected fault dies
  // with the process) and resets the per-incarnation fault counters
  // ("api_deadline_exceeded"), so sweep summaries count per
  // incarnation.
  FaultPoint& persist_fault() { return persist_fault_; }

  // --- admission ----------------------------------------------------------
  void AddAdmissionHook(AdmissionHook hook) {
    admission_hooks_.push_back(std::move(hook));
  }

  // --- commit observer (one slot; replaces any previous observer) -------
  void SetCommitObserver(CommitObserver observer) {
    commit_observer_ = std::move(observer);
  }

  // --- direct store access (tests/benches; charges nothing) -----------
  const model::ApiObject* Peek(const std::string& kind,
                               const std::string& name) const;
  std::vector<const model::ApiObject*> PeekAll(const std::string& kind) const;
  // key -> committed resource version for `kind` — the ground truth an
  // informer cache must reconverge to after an outage.
  std::map<std::string, std::uint64_t> VersionMap(
      const std::string& kind) const;
  std::size_t object_count() const { return store_.size(); }
  // Writes without cost or admission — test setup only.
  void SeedObject(model::ApiObject obj);

  MetricsRecorder& metrics() { return metrics_; }
  const CostModel& cost() const { return cost_; }
  sim::Engine& engine() { return engine_; }
  const ApfQueue& apf() const { return apf_; }

  // Kept only because perfbench/kdbench.cc, which is frozen, scrapes
  // metrics through the removed sharded plane's surface (DESIGN.md §6).
  // There is one server, so it is its own only shard.
  int num_shards() const { return 1; }
  ApiServer& shard(int index) {
    KD_CHECK(index == 0, "the control plane has one API server");
    return *this;
  }

 private:
  struct CommitResult {
    Status status;
    model::ApiObject object;  // committed version (valid when status ok)
  };
  using RespondFn = std::function<void(CommitResult)>;

  // Schedules request service through the worker pool, behind APF
  // admission when apf_seats > 0 (`flow` picks the fair queue).
  // `commit` runs at service completion (at the server); its result is
  // delivered to `respond` after response serialization + network
  // latency. The server has no runtime lane: its events run in the lane
  // of whatever scheduled them, and the client's completion wrapper
  // (ApiClient::RetryCall) scopes `respond` to the caller's lane.
  void Serve(const std::string& flow, std::size_t request_bytes,
             std::size_t response_bytes, bool is_write,
             std::function<CommitResult()> commit,
             std::function<void(CommitResult)> respond);

  Time AcquireWorker(Duration service_time);
  Time AcquireEtcd(Time ready);

  Status RunAdmission(AdmissionOp op, const model::ApiObject* existing,
                      const model::ApiObject* incoming) const;

  using Store = std::map<std::string, model::ApiObject>;  // key -> object

  // The objects of `kind`: keys are "Kind/name" and the store is
  // sorted, so one kind is the contiguous key range prefixed "Kind/"
  // — O(log store + kind population).
  std::ranges::subrange<Store::const_iterator> KindRange(
      const std::string& kind) const;

  // The one write path into the store (create, update, delete, seed):
  // stamps the next revision, shows the change to the commit observer,
  // then broadcasts it. `it` is the key's current entry (store_.end()
  // to create); `obj` is its new state, nullopt to delete it. Returns
  // the committed object — for a delete, the removed object stamped
  // with the delete's revision.
  model::ApiObject Commit(Store::iterator it,
                          std::optional<model::ApiObject> obj);
  void Broadcast(WatchEventType type, const model::ApiObject& obj);

  sim::Engine& engine_;
  CostModel cost_;
  Store store_;
  std::uint64_t revision_ = 0;
  CommitObserver commit_observer_;  // may be null

  std::vector<Time> worker_free_;  // min element = next available worker
  Time etcd_free_ = 0;

  struct Watcher {
    WatchFilter filter;  // may be null
    WatchCallback cb;
    WatchBreakCallback on_break;  // may be null
  };
  // Bucketed by kind, so a write visits only its own kind's watchers;
  // within a bucket, WatchId order is delivery order.
  std::map<std::string, std::map<WatchId, Watcher>> watchers_;
  WatchId next_watch_id_ = 1;

  // --- fault-domain state ---------------------------------------------
  // Crash epoch: closures belonging to the pre-crash process check it
  // and abort, so queued service/response events die with the server.
  bool up_ = true;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_request_id_ = 1;
  // In-flight requests (arrival .. response delivery), failed in id
  // order on Crash().
  std::map<std::uint64_t, std::shared_ptr<RespondFn>> pending_;
  Time outage_started_at_ = 0;
  FaultPoint persist_fault_;
  // APF fair queueing in front of the worker pool (disabled unless
  // cost.apf_seats > 0; queued work dies on Crash()).
  ApfQueue apf_;

  std::vector<AdmissionHook> admission_hooks_;
  MetricsRecorder metrics_;
  MetricsRecorder::Counter watch_events_ =
      metrics_.ResolveCounter("watch_events");
  MetricsRecorder::Counter deadline_exceeded_ =
      metrics_.ResolveCounter("api_deadline_exceeded");
  MetricsRecorder::Counter writes_ = metrics_.ResolveCounter("api_writes");
  MetricsRecorder::Counter reads_ = metrics_.ResolveCounter("api_reads");
  MetricsRecorder::Counter bytes_in_ = metrics_.ResolveCounter("api_bytes_in");
  MetricsRecorder::Counter bytes_out_ =
      metrics_.ResolveCounter("api_bytes_out");
  MetricsRecorder::Counter inflight_max_ =
      metrics_.ResolveCounter("api.inflight_max");
  MetricsRecorder::Counter apf_queue_depth_max_ =
      metrics_.ResolveCounter("apf.queue_depth_max");
  MetricsRecorder::Counter crashes_ =
      metrics_.ResolveCounter("apiserver.crashes");
  MetricsRecorder::Counter restarts_ =
      metrics_.ResolveCounter("apiserver.restarts");
  MetricsRecorder::Samples call_latency_ =
      metrics_.ResolveSamples("api_call_latency");
  MetricsRecorder::Samples outage_seconds_ =
      metrics_.ResolveSamples("apiserver.outage_seconds");
};

// The removed sharded plane's type name, kept only for
// perfbench/kdbench.cc, which is frozen (DESIGN.md §6).
using ControlPlane = ApiServer;

}  // namespace kd::apiserver
