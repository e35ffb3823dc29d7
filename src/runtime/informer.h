// Informer: the pub-sub feed from the API server into a controller's
// local cache (steps ①② of Fig. 4). It runs the List + Watch dance of
// client-go reflectors and merges watch events into the ObjectCache,
// whose change handlers trigger the control loop.
//
// One chain lists into the cache: arm the watch, List, then merge the
// snapshot, re-arming after watch_retry_backoff while the server is
// down. Start() enters it with an empty cache (the initial sync), and
// a watch break (the API server crashed) enters it again once the
// server is back (a relist). The merge is resourceVersion-guarded and
// diffs the snapshot against the cache: it synthesizes the
// Added/Modified/Deleted mutations missed during an outage, so the
// control loop sees one consistent level-triggered stream, and a list
// that lands after newer watch events never rolls the cache back.
// While a list is in flight the informer remembers the keys that
// watch events delete, with each delete's revision, so a snapshot
// taken before a delete cannot re-add the object. A second break
// arriving while a list is in flight invalidates that list's chain,
// so one outage window runs one recovery.
//
// Equal versions are dropped only after the first break (guard_).
// Until then a watch event is merged as delivered, which lets through
// the equal-version echoes of a controller's own write-through
// Upserts, and a list merges an object again over the equal copy a
// watch event delivered first. Both fire change handlers that enqueue
// reconciles. Dropping the list's re-merges moves bench_shard's K8s
// cold-start p99 from 509.9 s to 360.7 s (the Endpoints controller's
// Service list lands after all 2,500 Services were watched); whether
// dropping the echoes would move the pinned traces is not measured.
//
// Field selectors: an informer built with a WatchFilter watches only
// the objects the filter admits (how a Kubelet follows its own Node
// or the Pods bound to it) and diffs relists within that scope, so an
// object that left scope during an outage surfaces as a Deleted. The
// server has no filtered List and a full List per subscriber would
// cost O(cluster), so a filtered informer lists only to recover: its
// owner seeds the cache. While the owner's List is in flight
// (BeginOwnerList to EndOwnerList) the informer remembers watch
// deletes for it, as for a list of its own, so the owner can drop
// what its snapshot holds of objects deleted since.
//
// Crash safety: Stop() invalidates the session, and a watch event or
// break still in flight from the stopped session is dropped, so a
// crashed controller's cache takes no more events.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/client.h"
#include "common/lane.h"
#include "common/metrics.h"
#include "runtime/cache.h"

namespace kd::runtime {

class KD_LANE_SEAM Informer {
 public:
  // The client must be built over `server`. A non-null `filter` makes
  // this a field-selector informer (see above).
  Informer(apiserver::ApiClient& client, apiserver::ApiServer& server,
           ObjectCache& cache, MetricsRecorder* metrics = nullptr,
           apiserver::WatchFilter filter = nullptr)
      : client_(client),
        server_(server),
        cache_(cache),
        metrics_(metrics),
        filter_(std::move(filter)) {}
  ~Informer() { Stop(); }

  Informer(const Informer&) = delete;
  Informer& operator=(const Informer&) = delete;

  // Enters the list chain: registers the watch, then (unfiltered
  // only) lists into the cache. `done` fires once, when the first list
  // lands.
  void Start(const std::string& kind, std::function<void()> done = nullptr);

  void Stop();

  // Filtered informers: brackets the owner's seeding List. EndOwnerList
  // returns the key -> revision of each watch delete seen in between.
  void BeginOwnerList();
  std::map<std::string, std::uint64_t> EndOwnerList();

  // A list has landed since Start().
  bool synced() const { return synced_; }
  // Watch-break recoveries completed (relist + diff applied).
  std::uint64_t resyncs() const { return resyncs_; }

 private:
  // Registers the watch. Returns false while the server is down.
  bool ArmWatch();
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
  apiserver::WatchFilter filter_;  // null = the whole kind
  std::string kind_;
  apiserver::WatchId watch_id_ = 0;
  // Set on the first watch break: from then on merges drop equal
  // versions, and watch events are resourceVersion-guarded (see above).
  bool guard_ = false;
  // Invalidates an in-flight list chain when the watch breaks
  // mid-list.
  std::uint64_t resync_epoch_ = 0;
  std::uint64_t resyncs_ = 0;
  // Key -> revision of each watch delete seen while a list is in
  // flight; null while none is.
  std::unique_ptr<std::map<std::string, std::uint64_t>> list_deletes_;
  // The same for the owner's list; kept apart, since a recovery relist
  // can run while it is in flight.
  std::unique_ptr<std::map<std::string, std::uint64_t>> owner_list_deletes_;
  bool synced_ = false;
  bool running_ = false;
  std::function<void()> done_;
  // Stale-closure guard: invalidates everything on Stop/Start.
  std::uint64_t session_ = 0;
};

}  // namespace kd::runtime
