// The controller-local object cache (step ① of Fig. 4).
//
// In stock Kubernetes the cache is fed by API-server watch events; in
// KubeDirect mode the ingress module merges materialized messages into
// the *same* cache, which is how the integration stays transparent to
// the control loop (§3.1). The cache therefore accepts updates from
// either source through Upsert/Remove and notifies change handlers.
//
// Invalid marks (§4.2): after a reset-mode handshake, objects absent
// from the downstream are marked invalid rather than erased. Invalid
// objects are hidden from Get/List — equivalent to deleted for the
// control loop — but remembered, so late incoming updates for them can
// be ignored until the further upstream acknowledges the invalidation.
//
// Storage is one hash table keyed by object key: the point operations
// (Get, Upsert, Remove and the invalid-mark calls) run on every watch
// event and Kd message, the ordered views only on a relist, handshake
// or drain. The views that promise key order (List, ForEachVisible,
// InvalidKeys) sort a snapshot when called, so the table's hash order
// never reaches a caller (kdlint R2). An entry's node never moves, so
// a pointer from Get stays valid until its key leaves the cache,
// however many other keys arrive (an Upsert of the same key replaces
// the object in place).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/lane.h"
#include "model/objects.h"
#include "sim/lane_checker.h"

namespace kd::runtime {

class ObjectCache {
 public:
  // (key, previous state or null, new state or null). Fired on every
  // visible mutation, including invalidation (new = null).
  using ChangeHandler = std::function<void(
      const std::string& key, const model::ApiObject* before,
      const model::ApiObject* after)>;

  void AddChangeHandler(ChangeHandler handler) {
    handlers_.push_back(std::move(handler));
  }

  // Returns the object, or nullptr if missing or invalid-marked.
  const model::ApiObject* Get(const std::string& key) const;

  // All visible objects of `kind`, in key order (deterministic).
  // O(entries) plus the sort of the kind's objects.
  std::vector<const model::ApiObject*> List(const std::string& kind) const;
  std::size_t VisibleCount(const std::string& kind) const;

  // Inserts or overwrites; clears any invalid mark (the object is
  // authoritatively (re)established). Fires change handlers.
  void Upsert(model::ApiObject obj);

  // Removes the entry entirely. Fires handlers if it was visible.
  void Remove(const std::string& key);

  // Hides the object from the control loop but keeps the tombstoned
  // entry so stale in-flight updates can be recognized (§4.2).
  void MarkInvalid(const std::string& key);
  bool IsInvalid(const std::string& key) const;
  // Drops an invalid entry for good (upstream acknowledged).
  void DropInvalid(const std::string& key);
  std::vector<std::string> InvalidKeys() const;

  // Wipes everything (crash-restart: the cache is empty in recover
  // mode).
  void Clear();

  // Single-pass visitor over visible objects in key order — how both
  // sides of the handshake read the cache without copying it.
  void ForEachVisible(
      const std::function<void(const model::ApiObject&)>& fn) const;

  std::size_t size() const;  // visible entries

  // --- lane-ownership instrumentation ------------------------------
  // Binds this cache to its owning lane: from then on every read and
  // mutation reports to the checker, which flags touches from other
  // live lanes (see sim/lane_checker.h). Unbound caches (tests,
  // scratch) are never checked.
  void BindLane(sim::LaneChecker* checker, LaneId lane, std::string site) {
    checker_ = checker;
    lane_ = lane;
    site_ = std::move(site);
  }
  sim::LaneChecker* lane_checker() const { return checker_; }
  LaneId bound_lane() const { return lane_; }

 private:
  struct Entry {
    model::ApiObject object;
    bool invalid = false;
  };
  using Table = std::unordered_map<std::string, Entry>;

  // The entries whose key starts with `prefix` and whose invalid mark
  // equals `invalid`, sorted by key: the one place the ordered views
  // read the table.
  std::vector<const Table::value_type*> SortedEntries(std::string_view prefix,
                                                      bool invalid) const;
  void FireChange(const std::string& key, const model::ApiObject* before,
                  const model::ApiObject* after);

  // An inline ownership compare; unbound caches skip it.
  void TouchLane(const std::string& key) const {
    if (checker_ != nullptr) checker_->Touch(site_, lane_, key);
  }

  Table entries_;
  std::vector<ChangeHandler> handlers_;
  sim::LaneChecker* checker_ = nullptr;
  LaneId lane_ = kNoLane;
  std::string site_;
};

}  // namespace kd::runtime
