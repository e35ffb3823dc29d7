// Informer: the pub-sub feed from the API server into a controller's
// local cache (steps ①② of Fig. 4). Performs the initial List + Watch
// dance of client-go reflectors, then merges watch events into the
// ObjectCache, whose change handlers trigger the control loop.
//
// Fault domain: when the API server crashes, the watch stream breaks
// (on_break). The informer then re-establishes it reflector-style —
// watch first, then a relist carrying the snapshot's store revision —
// and diffs the snapshot against the local cache, synthesizing the
// Added/Modified/Deleted mutations missed during the outage so the
// control loop sees one consistent level-triggered stream. After the
// first break, merges are resourceVersion-guarded so a stale snapshot
// or late event can never roll the cache backwards. (The no-fault path
// is byte-identical to the pre-fault-domain informer: no guards, no
// extra events.) A second break arriving while a relist is in flight
// invalidates that relist's chain, so one outage window runs one
// recovery.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "common/lane.h"
#include "common/metrics.h"
#include "runtime/cache.h"

namespace kd::runtime {

class KD_LANE_SEAM Informer {
 public:
  // The client must be built over `server`.
  Informer(apiserver::ApiClient& client, apiserver::ApiServer& server,
           ObjectCache& cache, MetricsRecorder* metrics = nullptr)
      : client_(client), server_(server), cache_(cache), metrics_(metrics) {}
  ~Informer() { Stop(); }

  Informer(const Informer&) = delete;
  Informer& operator=(const Informer&) = delete;

  // Registers the watch, then lists to seed the cache. `done` fires
  // when the initial sync finished. Watch-before-list means no event
  // can be missed in the gap (events for objects the list also returns
  // are harmless Upserts). If the server is down, the informer keeps
  // retrying with watch_retry_backoff until it returns.
  void Start(const std::string& kind, std::function<void()> done = nullptr);

  void Stop();

  bool synced() const { return synced_; }
  // Watch-break recoveries completed (relist + diff applied).
  std::uint64_t resyncs() const { return resyncs_; }

 private:
  void StartStream();
  void RunInitialList();
  void HandleEvent(const apiserver::WatchEvent& event);
  void OnWatchBreak();
  void ScheduleRearm();
  void Rearm();
  void ApplySnapshot(std::vector<model::ApiObject> objects,
                     std::uint64_t revision);

  apiserver::ApiClient& client_;
  apiserver::ApiServer& server_;
  ObjectCache& cache_;
  MetricsRecorder* metrics_;
  std::string kind_;
  apiserver::WatchId watch_id_ = 0;
  // Set on the first watch break: from then on merges are
  // resourceVersion-guarded (never in the no-fault path, which keeps
  // its event trace byte-identical).
  bool guard_ = false;
  // Invalidates an in-flight recovery chain when the watch breaks
  // again mid-relist.
  std::uint64_t resync_epoch_ = 0;
  std::uint64_t resyncs_ = 0;
  bool synced_ = false;
  bool running_ = false;
  std::function<void()> done_;
  // Stale-closure guard: invalidates everything on Stop/Start.
  std::uint64_t session_ = 0;
};

}  // namespace kd::runtime
