#include "runtime/informer.h"

#include <set>

namespace kd::runtime {

void Informer::Start(const std::string& kind, std::function<void()> done) {
  kind_ = kind;
  running_ = true;
  ++session_;
  synced_ = false;
  watch_id_ = 0;
  guard_ = false;
  resync_epoch_ = 0;
  resyncs_ = 0;
  done_ = std::move(done);
  Rearm();
}

bool Informer::ArmWatch() {
  // Deliveries already scheduled when Stop() ran still fire; the
  // session capture drops them, so a crashed owner's cache stays empty.
  const std::uint64_t session = session_;
  watch_id_ = server_.Watch(
      kind_, filter_,
      [this, session](const apiserver::WatchEvent& event) {
        if (session == session_) HandleEvent(event);
      },
      [this, session] {
        if (session == session_) OnWatchBreak();
      });
  return watch_id_ != 0;
}

void Informer::Stop() {
  if (watch_id_ != 0) {
    server_.Unwatch(watch_id_);
    watch_id_ = 0;
  }
  ++resync_epoch_;
  running_ = false;
  ++session_;
  list_deletes_.reset();
  owner_list_deletes_.reset();
}

void Informer::BeginOwnerList() {
  owner_list_deletes_ =
      std::make_unique<std::map<std::string, std::uint64_t>>();
}

std::map<std::string, std::uint64_t> Informer::EndOwnerList() {
  const auto deleted = std::move(owner_list_deletes_);
  return deleted != nullptr ? std::move(*deleted)
                            : std::map<std::string, std::uint64_t>{};
}

void Informer::HandleEvent(const apiserver::WatchEvent& event) {
  // Sanctioned seam: the watch hub delivers events from whatever lane
  // committed the write; the merge runs in the cache owner's lane.
  sim::LaneScope lane_scope(cache_.lane_checker(), cache_.bound_lane());
  switch (event.type) {
    case apiserver::WatchEventType::kAdded:
    case apiserver::WatchEventType::kModified:
      if (guard_) {
        const model::ApiObject* cached = cache_.Get(event.object.Key());
        if (cached != nullptr &&
            cached->resource_version >= event.object.resource_version) {
          return;  // Stale relative to a merged relist snapshot.
        }
      }
      cache_.Upsert(event.object);
      break;
    case apiserver::WatchEventType::kDeleted:
      if (list_deletes_ != nullptr) {
        (*list_deletes_)[event.object.Key()] = event.object.resource_version;
      }
      if (owner_list_deletes_ != nullptr) {
        (*owner_list_deletes_)[event.object.Key()] =
            event.object.resource_version;
      }
      cache_.Remove(event.object.Key());
      break;
  }
}

void Informer::OnWatchBreak() {
  if (!running_) return;
  watch_id_ = 0;
  guard_ = true;
  ++resync_epoch_;
  list_deletes_.reset();  // The list in flight, if any, is void.
  ScheduleRearm();
}

void Informer::ScheduleRearm() {
  const std::uint64_t session = session_;
  const std::uint64_t epoch = resync_epoch_;
  server_.engine().ScheduleAfter(
      server_.cost().watch_retry_backoff, [this, session, epoch] {
        if (session != session_ || epoch != resync_epoch_ || !running_) {
          return;
        }
        Rearm();
      });
}

void Informer::Rearm() {
  // Reflector order: watch first, then list, so nothing committed
  // between the two is missed (duplicates are absorbed by the guarded
  // merge).
  if (!ArmWatch()) {
    ScheduleRearm();  // The server is down.
    return;
  }
  if (filter_ && !guard_) return;  // Lists only to recover.
  list_deletes_ = std::make_unique<std::map<std::string, std::uint64_t>>();
  const std::uint64_t session = session_;
  const std::uint64_t epoch = resync_epoch_;
  client_.List(
      kind_,
      [this, session, epoch](StatusOr<std::vector<model::ApiObject>> objects,
                             std::uint64_t revision) {
        if (session != session_ || epoch != resync_epoch_ || !running_) {
          return;
        }
        if (!objects.ok()) {
          // The server crashed between watch registration and the
          // list. Kill this chain (a concurrent on_break chain with the
          // old epoch dies too) and start a fresh one.
          if (watch_id_ != 0) {
            server_.Unwatch(watch_id_);
            watch_id_ = 0;
          }
          ++resync_epoch_;
          list_deletes_.reset();
          ScheduleRearm();
          return;
        }
        ApplySnapshot(*std::move(objects), revision);
      });
}

void Informer::ApplySnapshot(std::vector<model::ApiObject> objects,
                             std::uint64_t revision) {
  sim::LaneScope lane_scope(cache_.lane_checker(), cache_.bound_lane());
  const auto deleted = std::move(list_deletes_);
  std::set<std::string> snapshot_keys;
  for (auto& obj : objects) {
    // Out of scope: a cached copy is removed below as deleted.
    if (filter_ && !filter_(obj)) continue;
    const std::string& key = *snapshot_keys.insert(obj.Key()).first;
    // Skip what a watch event already moved past the snapshot: a newer
    // version in the cache, or a delete committed after it. An equal
    // version is merged again until the first break (see guard_).
    const model::ApiObject* cached = cache_.Get(key);
    if (cached != nullptr &&
        (cached->resource_version > obj.resource_version ||
         (guard_ && cached->resource_version == obj.resource_version))) {
      continue;
    }
    const auto gone = deleted->find(key);
    if (gone != deleted->end() && gone->second > obj.resource_version) {
      continue;
    }
    cache_.Upsert(std::move(obj));  // Synthesized Added/Modified.
  }
  // Cached-but-absent means deleted during the outage — unless the
  // cached version postdates the snapshot (a watch event beat the
  // list), in which case the object is newer than the snapshot knows.
  std::vector<std::string> to_remove;
  for (const model::ApiObject* cached : cache_.List(kind_)) {
    if (snapshot_keys.count(cached->Key()) != 0) continue;
    if (cached->resource_version > revision) continue;
    to_remove.push_back(cached->Key());
  }
  for (const std::string& key : to_remove) cache_.Remove(key);
  synced_ = true;
  if (guard_) {  // A relist after a watch break.
    ++resyncs_;
    if (metrics_ != nullptr) {
      metrics_->Count("informer." + kind_ + ".relists_total");
    }
  }
  if (!done_) return;
  std::function<void()> done = std::move(done_);
  done_ = nullptr;
  done();
}

}  // namespace kd::runtime
