// Informer: the pub-sub feed from the API server into a controller's
// local cache (steps ①② of Fig. 4). Performs the initial List + Watch
// dance of client-go reflectors, then merges watch events into the
// ObjectCache, whose change handlers trigger the control loop.
//
// The informer runs one reflector *source* per control-plane shard —
// its own watch stream, its own initial list, its own last-seen
// revision, its own recovery chain. Sources are fully independent:
// shard 2's watch break relists shard 2's slice of the keyspace and
// never touches the caches fed by the other sources. With one shard
// this is exactly the single-stream reflector.
//
// Fault domain: when a shard crashes, that source's watch stream
// breaks (on_break). The source then re-establishes it
// reflector-style — watch first, then a relist carrying the
// snapshot's store revision — and diffs the snapshot against the
// slice of the local cache the source owns, synthesizing the
// Added/Modified/Deleted mutations missed during the outage so the
// control loop sees one consistent level-triggered stream. After a
// source's first break, its merges are resourceVersion-guarded so a
// stale snapshot or late event can never roll the cache backwards.
// (The no-fault path is byte-identical to the pre-fault-domain
// informer: no guards, no extra events.)
//
// Every piece of recovery state is per-source: a blip on one shard
// cannot mask a concurrent blip on another, and (the latent single-
// epoch bug) a second break arriving while a relist is in flight
// invalidates only its own source's chain.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "apiserver/shard.h"
#include "common/lane.h"
#include "common/metrics.h"
#include "runtime/cache.h"

namespace kd::runtime {

class KD_LANE_SEAM Informer {
 public:
  // One source per shard of the plane. The client must be built over
  // the same plane (its ListShardAt indices and the plane's shard
  // indices must agree).
  Informer(apiserver::ApiClient& client, apiserver::ControlPlane& plane,
           ObjectCache& cache, MetricsRecorder* metrics = nullptr)
      : client_(client), cache_(cache), metrics_(metrics) {
    for (int i = 0; i < plane.num_shards(); ++i) {
      servers_.push_back(&plane.shard(i));
    }
  }
  ~Informer() { Stop(); }

  Informer(const Informer&) = delete;
  Informer& operator=(const Informer&) = delete;

  // Registers every source's watch, then lists each shard to seed the
  // cache. `done` fires when the last source finished its initial
  // sync. Watch-before-list means no event can be missed in the gap
  // (events for objects the list also returns are harmless Upserts).
  // If a shard is down, that source keeps retrying with
  // watch_retry_backoff until it returns.
  void Start(const std::string& kind, std::function<void()> done = nullptr);

  void Stop();

  bool synced() const { return started_ && pending_syncs_ == 0; }
  // Watch-break recoveries completed (relist + diff applied), summed
  // across sources.
  std::uint64_t resyncs() const;
  // Recoveries completed by one source — the sharded crash tests'
  // "other shards never relisted" assertion.
  std::uint64_t resyncs_for_shard(int shard) const {
    return sources_[static_cast<std::size_t>(shard)].resyncs;
  }
  int num_sources() const { return static_cast<int>(servers_.size()); }

 private:
  // Per-shard reflector stream. All recovery state lives here so one
  // source's break/relist chain can never invalidate another's.
  struct Source {
    apiserver::WatchId watch_id = 0;
    // Set on this source's first watch break: from then on merges
    // from this source are resourceVersion-guarded (never in the
    // no-fault path, which keeps its event trace byte-identical).
    bool guard = false;
    // Invalidates an in-flight recovery chain when this source's
    // watch breaks again mid-relist.
    std::uint64_t resync_epoch = 0;
    std::uint64_t resyncs = 0;
  };

  void StartSource(int s);
  void RunInitialList(int s);
  void HandleEvent(int s, const apiserver::WatchEvent& event);
  void OnWatchBreak(int s);
  void ScheduleRearm(int s);
  void Rearm(int s);
  void ApplySnapshot(int s, std::vector<model::ApiObject> objects,
                     std::uint64_t revision);
  void FinishInitialSync();

  apiserver::ApiClient& client_;
  std::vector<apiserver::ApiServer*> servers_;  // one per source
  ObjectCache& cache_;
  MetricsRecorder* metrics_;
  std::string kind_;
  std::vector<Source> sources_;
  int pending_syncs_ = 0;
  bool started_ = false;
  bool running_ = false;
  std::function<void()> done_;
  // Stale-closure guard: invalidates everything on Stop/Start.
  std::uint64_t session_ = 0;
};

}  // namespace kd::runtime
