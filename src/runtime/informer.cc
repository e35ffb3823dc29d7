#include "runtime/informer.h"

#include <set>

#include "common/strings.h"

namespace kd::runtime {

void Informer::Start(const std::string& kind, std::function<void()> done) {
  kind_ = kind;
  started_ = true;
  running_ = true;
  ++session_;
  pending_syncs_ = static_cast<int>(servers_.size());
  sources_.assign(servers_.size(), Source{});
  done_ = std::move(done);
  for (int s = 0; s < static_cast<int>(servers_.size()); ++s) {
    StartSource(s);
  }
}

void Informer::StartSource(int s) {
  Source& src = sources_[static_cast<std::size_t>(s)];
  apiserver::ApiServer& server = *servers_[static_cast<std::size_t>(s)];
  // Arm the watch first (free registration). If the shard is down the
  // registration is refused; keep retrying until it sticks, then list.
  src.watch_id = server.Watch(
      kind_, nullptr,
      [this, s](const apiserver::WatchEvent& event) { HandleEvent(s, event); },
      [this, s] { OnWatchBreak(s); }, cache_.bound_lane());
  if (src.watch_id == 0) {
    const std::uint64_t session = session_;
    server.engine().ScheduleAfter(server.cost().watch_retry_backoff,
                                  [this, session, s] {
                                    if (session != session_ || !running_) {
                                      return;
                                    }
                                    StartSource(s);
                                  });
    return;
  }
  RunInitialList(s);
}

void Informer::RunInitialList(int s) {
  const std::uint64_t session = session_;
  client_.ListShardAt(
      s, kind_,
      [this, session, s](StatusOr<std::vector<model::ApiObject>> result,
                         std::uint64_t) {
        if (session != session_ || !running_) return;
        // Sanctioned seam: the initial-list merge writes the owner's
        // cache from an API-server response event.
        sim::LaneScope lane_scope(cache_.lane_checker(), cache_.bound_lane());
        if (!result.ok()) {
          // Shard died mid-sync (transport failure after retries). The
          // broken-watch path re-arms the stream; the initial list
          // itself keeps retrying so the sync eventually completes.
          apiserver::ApiServer& server = *servers_[static_cast<std::size_t>(s)];
          server.engine().ScheduleAfter(server.cost().watch_retry_backoff,
                                        [this, session, s] {
                                          if (session != session_ ||
                                              !running_) {
                                            return;
                                          }
                                          RunInitialList(s);
                                        });
          return;
        }
        for (auto& obj : *result) {
          if (sources_[static_cast<std::size_t>(s)].guard) {
            // A crash interleaved with the initial sync: the relist
            // machinery may already have merged fresher state.
            const model::ApiObject* cached = cache_.Get(obj.Key());
            if (cached != nullptr &&
                cached->resource_version >= obj.resource_version) {
              continue;
            }
          }
          cache_.Upsert(std::move(obj));
        }
        --pending_syncs_;
        FinishInitialSync();
      });
}

void Informer::FinishInitialSync() {
  if (pending_syncs_ != 0 || !done_) return;
  std::function<void()> done = std::move(done_);
  done_ = nullptr;
  done();
}

void Informer::Stop() {
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    if (sources_[s].watch_id != 0) {
      servers_[s]->Unwatch(sources_[s].watch_id);
      sources_[s].watch_id = 0;
    }
    ++sources_[s].resync_epoch;
  }
  running_ = false;
  ++session_;
}

void Informer::HandleEvent(int s, const apiserver::WatchEvent& event) {
  // Sanctioned seam: the watch hub delivers events from whatever lane
  // committed the write; the merge runs in the cache owner's lane.
  sim::LaneScope lane_scope(cache_.lane_checker(), cache_.bound_lane());
  switch (event.type) {
    case apiserver::WatchEventType::kAdded:
    case apiserver::WatchEventType::kModified:
      if (sources_[static_cast<std::size_t>(s)].guard) {
        const model::ApiObject* cached = cache_.Get(event.object.Key());
        if (cached != nullptr &&
            cached->resource_version >= event.object.resource_version) {
          return;  // Stale relative to a merged relist snapshot.
        }
      }
      cache_.Upsert(event.object);
      break;
    case apiserver::WatchEventType::kDeleted:
      cache_.Remove(event.object.Key());
      break;
  }
}

void Informer::OnWatchBreak(int s) {
  if (!running_) return;
  Source& src = sources_[static_cast<std::size_t>(s)];
  src.watch_id = 0;
  src.guard = true;
  ++src.resync_epoch;
  ScheduleRearm(s);
}

void Informer::ScheduleRearm(int s) {
  const std::uint64_t session = session_;
  const std::uint64_t epoch = sources_[static_cast<std::size_t>(s)].resync_epoch;
  apiserver::ApiServer& server = *servers_[static_cast<std::size_t>(s)];
  server.engine().ScheduleAfter(
      server.cost().watch_retry_backoff, [this, session, epoch, s] {
        if (session != session_ ||
            epoch != sources_[static_cast<std::size_t>(s)].resync_epoch ||
            !running_) {
          return;
        }
        Rearm(s);
      });
}

void Informer::Rearm(int s) {
  Source& src = sources_[static_cast<std::size_t>(s)];
  apiserver::ApiServer& server = *servers_[static_cast<std::size_t>(s)];
  // Reflector order: watch first, then list, so nothing committed
  // between the two is missed (duplicates are absorbed by the guarded
  // merge).
  src.watch_id = server.Watch(
      kind_, nullptr,
      [this, s](const apiserver::WatchEvent& event) { HandleEvent(s, event); },
      [this, s] { OnWatchBreak(s); }, cache_.bound_lane());
  if (src.watch_id == 0) {
    ScheduleRearm(s);  // Still down.
    return;
  }
  const std::uint64_t session = session_;
  const std::uint64_t epoch = src.resync_epoch;
  client_.ListShardAt(
      s, kind_,
      [this, session, epoch, s](StatusOr<std::vector<model::ApiObject>> objects,
                                std::uint64_t revision) {
        Source& source = sources_[static_cast<std::size_t>(s)];
        if (session != session_ || epoch != source.resync_epoch ||
            !running_) {
          return;
        }
        if (!objects.ok()) {
          // The shard crashed again between watch registration and the
          // list. Kill this recovery chain (a concurrent on_break
          // chain with the old epoch dies too) and start a fresh one.
          if (source.watch_id != 0) {
            servers_[static_cast<std::size_t>(s)]->Unwatch(source.watch_id);
            source.watch_id = 0;
          }
          ++source.resync_epoch;
          ScheduleRearm(s);
          return;
        }
        ApplySnapshot(s, *std::move(objects), revision);
      });
}

void Informer::ApplySnapshot(int s, std::vector<model::ApiObject> objects,
                             std::uint64_t revision) {
  sim::LaneScope lane_scope(cache_.lane_checker(), cache_.bound_lane());
  std::set<std::string> snapshot_keys;
  for (auto& obj : objects) {
    snapshot_keys.insert(obj.Key());
    const model::ApiObject* cached = cache_.Get(obj.Key());
    if (cached != nullptr &&
        cached->resource_version >= obj.resource_version) {
      continue;
    }
    cache_.Upsert(std::move(obj));  // Synthesized Added/Modified.
  }
  // Cached-but-absent means deleted during the outage — unless the
  // cached version postdates the snapshot (a watch event beat the
  // list), in which case the object is newer than the snapshot knows.
  // With S shards the snapshot only covers shard s's slice, so the
  // delete scan must skip keys the other sources own (their absence
  // here says nothing).
  const bool sharded = servers_.size() > 1;
  std::vector<std::string> to_remove;
  for (const model::ApiObject* cached : cache_.List(kind_)) {
    if (sharded && client_.router().ShardForKey(cached->Key()) != s) continue;
    if (snapshot_keys.count(cached->Key()) != 0) continue;
    if (cached->resource_version > revision) continue;
    to_remove.push_back(cached->Key());
  }
  for (const std::string& key : to_remove) cache_.Remove(key);
  ++sources_[static_cast<std::size_t>(s)].resyncs;
  if (metrics_ != nullptr) {
    metrics_->Count("informer." + kind_ + ".relists_total");
    if (sharded) {
      metrics_->Count(StrFormat("informer.%s.shard%d.relists_total",
                                kind_.c_str(), s));
    }
  }
}

std::uint64_t Informer::resyncs() const {
  std::uint64_t total = 0;
  for (const Source& src : sources_) total += src.resyncs;
  return total;
}

}  // namespace kd::runtime
