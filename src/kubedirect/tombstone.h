// Tombstones (§4.3): best-effort, session-scoped termination intents.
//
// A controller that decides to terminate a Pod records a Tombstone and
// keeps replicating it downstream (CR-style) until it observes the pod
// is locally present but absent downstream — the well-defined point at
// which it may remove the pod itself and garbage-collect the
// tombstone. Tombstones live only for the controller's current session
// (a crash clears them; the downstream state then drives recovery).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/fault_point.h"

namespace kd::kubedirect {

class TombstoneTracker {
 public:
  // Numbered-operation crash seam: every Add() ticks it; an armed
  // index drops that intent (the crash races the tombstone write — it
  // never reaches the session-scoped table) and surprise-shuts the
  // owning controller down via the fault's on_fire hook.
  void set_fault(FaultPoint* fault) { fault_ = fault; }

  // Registers a termination intent for `key`. Idempotent.
  void Add(const std::string& key) {
    if (fault_ != nullptr && fault_->Tick()) return;
    tombstones_.insert(key);
  }

  bool Has(const std::string& key) const {
    return tombstones_.count(key) > 0;
  }

  // Garbage-collects the tombstone once the referenced pod is gone.
  void Gc(const std::string& key) { tombstones_.erase(key); }

  // Session reset (controller crash).
  void Clear() { tombstones_.clear(); }

  std::size_t size() const { return tombstones_.size(); }
  bool empty() const { return tombstones_.empty(); }

  // Replays every live tombstone through `send`, in key order — used
  // right after a handshake to fast-forward termination intents (§4.3:
  // "Tombstones are subject to CR-style fast-forwarding in case
  // controllers crashes or disconnects"). The order feeds sends, so it
  // walks a sorted snapshot, never the hash table (kdlint R2).
  void ReplicateAll(const std::function<void(const std::string&)>& send) const {
    std::vector<std::string> keys(tombstones_.begin(), tombstones_.end());
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) send(key);
  }

 private:
  FaultPoint* fault_ = nullptr;
  // Searched on every pod cache event of the ReplicaSet controller, so
  // it hashes; only ReplicateAll walks it.
  std::unordered_set<std::string> tombstones_;
};

}  // namespace kd::kubedirect
