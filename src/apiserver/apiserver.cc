#include "apiserver/apiserver.h"

#include <algorithm>

#include "common/strings.h"

namespace kd::apiserver {

ApiServer::ApiServer(sim::Engine& engine, CostModel cost)
    : engine_(engine), cost_(cost) {
  worker_free_.assign(static_cast<std::size_t>(
                          std::max(1, cost_.api_server_workers)),
                      0);
  apf_.Configure(cost_.apf_seats);
}

Time ApiServer::AcquireWorker(Duration service_time) {
  auto it = std::min_element(worker_free_.begin(), worker_free_.end());
  const Time start = std::max(engine_.now(), *it);
  const Time end = start + service_time;
  *it = end;
  return end;
}

Time ApiServer::AcquireEtcd(Time ready) {
  // Writes serialize through the etcd leader. An isolated write pays a
  // full raft-commit/fsync; writes that queue behind others share the
  // fsync window (group commit), paying 1/batch of it.
  Time end;
  if (etcd_free_ <= ready) {
    end = ready + cost_.etcd_persist_latency;
  } else {
    end = etcd_free_ +
          cost_.etcd_persist_latency / std::max(1, cost_.etcd_batch);
  }
  etcd_free_ = end;
  return end;
}

Status ApiServer::RunAdmission(AdmissionOp op,
                               const model::ApiObject* existing,
                               const model::ApiObject* incoming) const {
  for (const auto& hook : admission_hooks_) {
    Status s = hook(op, existing, incoming);
    if (!s.ok()) return s;
  }
  return OkStatus();
}

std::ranges::subrange<ApiServer::Store::const_iterator> ApiServer::KindRange(
    const std::string& kind) const {
  // '0' is the character after '/': the first key past the prefix.
  return {store_.lower_bound(kind + "/"), store_.lower_bound(kind + "0")};
}

model::ApiObject ApiServer::Commit(Store::iterator it,
                                   std::optional<model::ApiObject> obj) {
  if (!obj) {
    if (commit_observer_) commit_observer_(&it->second, nullptr);
    model::ApiObject removed = std::move(it->second);
    store_.erase(it);
    removed.resource_version = ++revision_;
    Broadcast(WatchEventType::kDeleted, removed);
    return removed;
  }
  obj->resource_version = ++revision_;
  WatchEventType type = WatchEventType::kModified;
  if (it == store_.end()) {
    type = WatchEventType::kAdded;
    it = store_.emplace(obj->Key(), std::move(*obj)).first;
    if (commit_observer_) commit_observer_(nullptr, &it->second);
  } else {
    if (commit_observer_) commit_observer_(&it->second, &*obj);
    it->second = std::move(*obj);
  }
  Broadcast(type, it->second);
  return it->second;
}

void ApiServer::Broadcast(WatchEventType type, const model::ApiObject& obj) {
  auto bucket = watchers_.find(obj.kind);
  if (bucket == watchers_.end()) return;
  for (const auto& [id, watcher] : bucket->second) {
    if (watcher.filter && !watcher.filter(obj)) continue;
    // Copy per watcher; delivery is ordered because events scheduled at
    // equal times fire in scheduling order.
    const Duration delay =
        cost_.watch_delivery_latency +
        static_cast<Duration>(static_cast<double>(obj.SerializedSize()) *
                              cost_.serialize_ns_per_byte);
    WatchCallback cb = watcher.cb;
    WatchEvent event{type, obj};
    const std::uint64_t epoch = epoch_;
    // Sanctioned seam: the delivery runs in the subscriber's lane.
    engine_.ScheduleSeamAfter(
        watcher.lane, delay,
        [this, epoch, cb = std::move(cb), event = std::move(event)]() mutable {
          // Deliveries in flight at crash time die with the stream.
          if (epoch != epoch_) return;
          cb(event);
        });
    watch_events_.Add();
  }
}

void ApiServer::Serve(const std::string& flow, std::size_t request_bytes,
                      std::size_t response_bytes, bool is_write,
                      std::function<CommitResult()> commit,
                      std::function<void(CommitResult)> respond) {
  // The lane of the context that dispatched the request (the client's
  // component). The response — and the dead-server deadline expiry —
  // travel back there.
  const LaneId reply_lane = engine_.seam_origin_lane();
  if (!up_) {
    // Dead server: the request neither queues nor commits — it hangs
    // until the client-side per-attempt deadline expires.
    deadline_exceeded_.Add();
    engine_.ScheduleSeamAfter(reply_lane, cost_.api_request_deadline,
                              [respond = std::move(respond)]() mutable {
                                respond({DeadlineExceededError(
                                             "API server unavailable"),
                                         {}});
                              });
    return;
  }
  (is_write ? writes_ : reads_).Add();
  bytes_in_.Add(static_cast<std::int64_t>(request_bytes));
  const Time arrival = engine_.now();

  // Registered until the response is delivered; Crash() fails every
  // registered request and bumps the epoch, which disarms the closures
  // below (queued service work and in-flight responses die with the
  // process — only the failure from Crash() reaches the client).
  auto respond_shared = std::make_shared<RespondFn>(std::move(respond));
  const std::uint64_t id = next_request_id_++;
  const std::uint64_t epoch = epoch_;
  pending_.emplace(id, respond_shared);
  inflight_max_.RecordMax(static_cast<std::int64_t>(pending_.size()));

  auto finish = [this, id, epoch, arrival, response_bytes, reply_lane,
                 respond_shared](CommitResult result, Time commit_done) {
    const Duration response_ser = static_cast<Duration>(
        static_cast<double>(response_bytes) * cost_.serialize_ns_per_byte);
    const Time respond_at =
        commit_done + response_ser + cost_.api_network_latency;
    bytes_out_.Add(static_cast<std::int64_t>(response_bytes));
    engine_.ScheduleSeamAt(reply_lane, respond_at,
                           [this, id, epoch, arrival, respond_shared,
                            result = std::move(result)]() mutable {
                             if (epoch != epoch_) return;
                             pending_.erase(id);
                             call_latency_.RecordDuration(engine_.now() -
                                                          arrival);
                             (*respond_shared)(std::move(result));
                           });
  };

  // Admission, then the worker pool. With APF disabled `Submit` runs
  // the closure inline, so this path is event-for-event identical to
  // the server without APF. A queued request holds no worker; it gets
  // one when a seat frees (Release below), which is when admission
  // control actually changes who waits: the worker-pool backlog is
  // FIFO by arrival, the APF queue is fair across flows.
  apf_.Submit(flow, [this, epoch, is_write, request_bytes,
                     commit = std::move(commit),
                     finish = std::move(finish)]() mutable {
    if (epoch != epoch_) return;  // crashed while queued (defensive)
    const Duration service =
        cost_.api_processing +
        static_cast<Duration>(static_cast<double>(request_bytes) *
                              cost_.serialize_ns_per_byte);
    const Time service_done = AcquireWorker(service);
    engine_.ScheduleAt(
        service_done,
        [this, epoch, is_write, commit = std::move(commit),
         finish = std::move(finish)]() mutable {
          if (epoch != epoch_) return;  // died before servicing: no commit
          CommitResult result = commit();
          Time done = engine_.now();
          if (is_write && result.status.ok()) {
            done = AcquireEtcd(done);
          }
          // Seat frees at service completion; the next queued flow is
          // dispatched synchronously (no-op when APF is disabled or
          // the process crashed inside commit — Reset cleared it).
          apf_.Release();
          finish(std::move(result), done);
        });
  });
  if (apf_.enabled()) {
    apf_queue_depth_max_.RecordMax(static_cast<std::int64_t>(apf_.queued()));
  }
}

void ApiServer::Crash() {
  if (!up_) return;
  up_ = false;
  ++epoch_;
  outage_started_at_ = engine_.now();
  crashes_.Add();
  // Every in-flight request fails fast — the TCP connections reset, so
  // clients learn after one network latency, not a full deadline.
  for (auto& [id, respond] : pending_) {
    (void)id;
    engine_.ScheduleAfter(cost_.api_network_latency, [respond]() {
      (*respond)({UnavailableError("API server crashed"), {}});
    });
  }
  pending_.clear();
  // Queued-but-unadmitted requests die with the process (their
  // responses were failed above via pending_); every APF seat frees.
  apf_.Reset();
  // Watch streams die; subscribers that registered a break handler
  // learn after the delivery latency and must re-list on reconnect.
  // Breaks are scheduled in global WatchId order, across kind buckets.
  std::map<WatchId, WatchBreakCallback> breaks;
  for (auto& [kind, bucket] : watchers_) {
    for (auto& [id, watcher] : bucket) {
      if (watcher.on_break) breaks.emplace(id, std::move(watcher.on_break));
    }
  }
  watchers_.clear();
  for (auto& [id, on_break] : breaks) {
    engine_.ScheduleAfter(cost_.watch_delivery_latency,
                          [cb = std::move(on_break)] { cb(); });
  }
}

void ApiServer::Restart() {
  if (up_) return;
  up_ = true;
  // The injected fault dies with the crashed process; per-incarnation
  // fault counters restart from zero with it.
  persist_fault_.Disarm();
  metrics_.ResetCounter("api_deadline_exceeded");
  const Duration outage = engine_.now() - outage_started_at_;
  outage_seconds_.RecordValue(ToSeconds(outage));
  restarts_.Add();
  // Fresh process over the persisted store: empty worker pool, empty
  // etcd pipeline, no watchers. store_/revision_ replay from etcd.
  std::fill(worker_free_.begin(), worker_free_.end(), Time{0});
  etcd_free_ = 0;
}

void ApiServer::HandleCreate(
    const std::string& flow, model::ApiObject obj,
    std::function<void(StatusOr<model::ApiObject>)> done) {
  const std::size_t bytes = obj.SerializedSize();
  Serve(
      flow, bytes, bytes, /*is_write=*/true,
      [this, obj = std::move(obj)]() mutable -> CommitResult {
        const std::string key = obj.Key();
        auto it = store_.find(key);
        if (it != store_.end()) {
          return {AlreadyExistsError(key), {}};
        }
        Status admission =
            RunAdmission(AdmissionOp::kCreate, nullptr, &obj);
        if (!admission.ok()) return {admission, {}};
        if (persist_fault_.Tick()) {  // crash before the fsync lands
          Crash();
          return {UnavailableError("surprise shutdown at persist"), {}};
        }
        model::ApiObject committed = Commit(it, std::move(obj));
        if (persist_fault_.Tick()) Crash();  // committed, unacknowledged
        return {OkStatus(), std::move(committed)};
      },
      [done = std::move(done)](CommitResult r) {
        if (r.status.ok()) {
          done(std::move(r.object));
        } else {
          done(r.status);
        }
      });
}

void ApiServer::HandleUpdate(
    const std::string& flow, model::ApiObject obj,
    std::function<void(StatusOr<model::ApiObject>)> done) {
  const std::size_t bytes = obj.SerializedSize();
  Serve(
      flow, bytes, bytes, /*is_write=*/true,
      [this, obj = std::move(obj)]() mutable -> CommitResult {
        const std::string key = obj.Key();
        auto it = store_.find(key);
        if (it == store_.end()) {
          return {NotFoundError(key), {}};
        }
        if (obj.resource_version != it->second.resource_version) {
          return {ConflictError(StrFormat(
                      "%s: stale resourceVersion %llu (current %llu)",
                      key.c_str(),
                      static_cast<unsigned long long>(obj.resource_version),
                      static_cast<unsigned long long>(
                          it->second.resource_version))),
                  {}};
        }
        Status admission =
            RunAdmission(AdmissionOp::kUpdate, &it->second, &obj);
        if (!admission.ok()) return {admission, {}};
        if (persist_fault_.Tick()) {  // crash before the fsync lands
          Crash();
          return {UnavailableError("surprise shutdown at persist"), {}};
        }
        model::ApiObject committed = Commit(it, std::move(obj));
        if (persist_fault_.Tick()) Crash();  // committed, unacknowledged
        return {OkStatus(), std::move(committed)};
      },
      [done = std::move(done)](CommitResult r) {
        if (r.status.ok()) {
          done(std::move(r.object));
        } else {
          done(r.status);
        }
      });
}

void ApiServer::HandleDelete(const std::string& flow,
                             const std::string& kind, const std::string& name,
                             std::function<void(Status)> done) {
  Serve(
      flow, kind.size() + name.size() + 64, 64, /*is_write=*/true,
      [this, kind, name]() -> CommitResult {
        const std::string key = model::ApiObject::MakeKey(kind, name);
        auto it = store_.find(key);
        if (it == store_.end()) {
          return {NotFoundError(key), {}};
        }
        Status admission =
            RunAdmission(AdmissionOp::kDelete, &it->second, nullptr);
        if (!admission.ok()) return {admission, {}};
        if (persist_fault_.Tick()) {  // crash before the fsync lands
          Crash();
          return {UnavailableError("surprise shutdown at persist"), {}};
        }
        model::ApiObject removed = Commit(it, std::nullopt);
        if (persist_fault_.Tick()) Crash();  // committed, unacknowledged
        return {OkStatus(), std::move(removed)};
      },
      [done = std::move(done)](CommitResult r) { done(r.status); });
}

void ApiServer::HandleGet(
    const std::string& flow, const std::string& kind, const std::string& name,
    std::function<void(StatusOr<model::ApiObject>)> done) {
  const std::string key = model::ApiObject::MakeKey(kind, name);
  auto it = store_.find(key);
  const std::size_t response_bytes =
      it == store_.end() ? 64 : it->second.SerializedSize();
  Serve(
      flow, key.size() + 64, response_bytes, /*is_write=*/false,
      [this, key]() -> CommitResult {
        auto it2 = store_.find(key);
        if (it2 == store_.end()) return {NotFoundError(key), {}};
        return {OkStatus(), it2->second};
      },
      [done = std::move(done)](CommitResult r) {
        if (r.status.ok()) {
          done(std::move(r.object));
        } else {
          done(r.status);
        }
      });
}

void ApiServer::HandleList(
    const std::string& flow, const std::string& kind,
    std::function<void(StatusOr<std::vector<model::ApiObject>>,
                       std::uint64_t)>
        done) {
  // Response size is the whole collection — the expensive part of a
  // relist, which is why informers avoid them.
  std::size_t response_bytes = 64;
  for (const auto& [key, obj] : KindRange(kind)) {
    response_bytes += obj.SerializedSize();
  }
  // Snapshot at commit time (server-side), deliver after response
  // latency; the snapshot is shared between the two closures.
  auto snapshot = std::make_shared<std::vector<model::ApiObject>>();
  auto at_revision = std::make_shared<std::uint64_t>(0);
  Serve(
      flow, kind.size() + 64, response_bytes, /*is_write=*/false,
      [this, kind, snapshot, at_revision]() -> CommitResult {
        for (const auto& [key, obj] : KindRange(kind)) {
          snapshot->push_back(obj);
        }
        *at_revision = revision_;
        return {OkStatus(), {}};
      },
      [snapshot, at_revision, done = std::move(done)](CommitResult r) {
        if (!r.status.ok()) {
          done(r.status, *at_revision);
          return;
        }
        done(std::move(*snapshot), *at_revision);
      });
}

WatchId ApiServer::Watch(const std::string& kind, WatchCallback cb) {
  return Watch(kind, nullptr, std::move(cb), nullptr, kNoLane);
}

WatchId ApiServer::Watch(const std::string& kind, WatchFilter filter,
                         WatchCallback cb, WatchBreakCallback on_break,
                         LaneId lane) {
  if (!up_) return 0;  // nothing to connect to; caller retries
  const WatchId id = next_watch_id_++;
  watchers_[kind].emplace(id, Watcher{std::move(filter), std::move(cb),
                                      std::move(on_break), lane});
  return id;
}

void ApiServer::Unwatch(WatchId id) {
  for (auto& [kind, bucket] : watchers_) {
    if (bucket.erase(id) != 0) return;
  }
}

const model::ApiObject* ApiServer::Peek(const std::string& kind,
                                        const std::string& name) const {
  auto it = store_.find(model::ApiObject::MakeKey(kind, name));
  return it == store_.end() ? nullptr : &it->second;
}

std::vector<const model::ApiObject*> ApiServer::PeekAll(
    const std::string& kind) const {
  std::vector<const model::ApiObject*> out;
  for (const auto& [key, obj] : KindRange(kind)) out.push_back(&obj);
  return out;
}

std::map<std::string, std::uint64_t> ApiServer::VersionMap(
    const std::string& kind) const {
  std::map<std::string, std::uint64_t> out;
  // The range is key-sorted, so hinting at end() makes each insert O(1).
  for (const auto& [key, obj] : KindRange(kind)) {
    out.emplace_hint(out.end(), key, obj.resource_version);
  }
  return out;
}

void ApiServer::SeedObject(model::ApiObject obj) {
  auto it = store_.find(obj.Key());
  Commit(it, std::move(obj));
}

}  // namespace kd::apiserver
