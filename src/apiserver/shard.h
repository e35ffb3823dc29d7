// Sharded control plane: S independent API-server/etcd pairs behind a
// stable key→shard router — the production deployment pattern that
// pushes the keyspace past one apiserver's capacity (ROADMAP item 1).
//
// Partitioning model:
//   - every object key ("kind/name") maps to exactly one shard via
//     ShardRouter (FNV-1a over the key, mod S) — stable across
//     restarts, processes and runs, so routing never needs to be
//     persisted or negotiated;
//   - each shard owns a disjoint slice of the durable store, its own
//     etcd leader, worker pool, watch hub, APF queue and metrics;
//     resourceVersions are per-shard and only comparable within one
//     shard (exactly like multi-etcd Kubernetes deployments);
//   - clients route writes by key and fan lists/watches out across all
//     shards; informers keep per-shard last-seen state so one shard's
//     watch break never forces a relist against the others.
//
// Seam preservation: with S == 1 the router is a pass-through (always
// shard 0, no hashing) and ControlPlane degenerates to the one
// ApiServer it owns — the paper's single API server, with
// byte-identical determinism fingerprints. Every client, informer and
// controller addresses the control plane through a ControlPlane, at
// any S.
//
// All shard-index arithmetic lives in this directory (kdlint R6):
// outside src/apiserver, code asks the router — it never recomputes
// `hash % shards` itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "common/lane.h"

namespace kd::apiserver {

// Stable key→shard mapping. A pure function of (key, S): no state, no
// registration, nothing to recover after a crash.
class ShardRouter {
 public:
  explicit ShardRouter(int num_shards)
      : num_shards_(num_shards < 1 ? 1 : num_shards) {}

  int num_shards() const { return num_shards_; }

  // S == 1 is a strict pass-through: no hashing, always shard 0.
  int ShardForKey(const std::string& key) const {
    if (num_shards_ == 1) return 0;
    // FNV-1a, 64-bit: stable across platforms and runs.
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : key) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 1099511628211ull;
    }
    return static_cast<int>(h % static_cast<std::uint64_t>(num_shards_));
  }

  int ShardFor(const std::string& kind, const std::string& name) const {
    return ShardForKey(model::ApiObject::MakeKey(kind, name));
  }

 private:
  int num_shards_;
};

// The S-way sharded control plane: owns the per-shard ApiServers and
// presents the aggregate surface the cluster and tests address a
// control plane through (whole-plane crash/restart, merged store
// peeks, routed seeding). Per-shard faults go through shard(i) /
// CrashShard(i); key-routed traffic goes through ApiClient, which
// holds the same router.
class KD_LANE_OWNED(apiserver) ControlPlane {
 public:
  // Constructs `num_shards` API servers over one engine/cost; the
  // default is the single server.
  ControlPlane(sim::Engine& engine, const CostModel& cost, int num_shards = 1)
      : router_(num_shards) {
    shards_.reserve(static_cast<std::size_t>(router_.num_shards()));
    for (int i = 0; i < router_.num_shards(); ++i) {
      shards_.push_back(std::make_unique<ApiServer>(engine, cost));
    }
  }

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardRouter& router() const { return router_; }
  ApiServer& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const ApiServer& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }
  ApiServer& shard_for_key(const std::string& key) {
    return shard(router_.ShardForKey(key));
  }

  // --- whole-plane fault injection ----------------------------------
  // Crash()/Restart() take the entire control plane down/up (the
  // pre-sharding semantics every existing test and bench relies on);
  // CrashShard()/RestartShard() blip exactly one keyspace slice.
  void Crash() {
    for (const auto& s : shards_) s->Crash();
  }
  void Restart() {
    for (const auto& s : shards_) s->Restart();
  }
  void CrashShard(int i) { shard(i).Crash(); }
  void RestartShard(int i) { shard(i).Restart(); }
  bool up() const {
    for (const auto& s : shards_) {
      if (!s->up()) return false;
    }
    return true;
  }
  bool ShardUp(int i) const { return shard(i).up(); }

  // Shard 0's seam, preserving the single-server call sites; per-shard
  // seams via persist_fault(i).
  FaultPoint& persist_fault() { return shards_.front()->persist_fault(); }
  FaultPoint& persist_fault(int i) { return shard(i).persist_fault(); }

  // --- admission ----------------------------------------------------
  // Hooks guard invariants of single objects, so the same hook is
  // installed on every shard.
  void AddAdmissionHook(AdmissionHook hook) {
    for (std::size_t i = 0; i + 1 < shards_.size(); ++i) {
      shards_[i]->AddAdmissionHook(hook);
    }
    shards_.back()->AddAdmissionHook(std::move(hook));
  }

  // --- commit observer ----------------------------------------------
  // Installed on every shard: together they see every commit of the
  // plane (per shard in commit order).
  void SetCommitObserver(const CommitObserver& observer) {
    for (const auto& s : shards_) s->SetCommitObserver(observer);
  }

  // --- direct store access (tests/benches; charges nothing) ---------
  const model::ApiObject* Peek(const std::string& kind,
                               const std::string& name) const {
    return shards_[static_cast<std::size_t>(router_.ShardFor(kind, name))]
        ->Peek(kind, name);
  }
  // Merged across shards in global key order (each shard's store is
  // key-sorted; the merge keeps the deterministic iteration order the
  // single-server PeekAll had).
  std::vector<const model::ApiObject*> PeekAll(const std::string& kind) const {
    std::vector<const model::ApiObject*> out;
    for (const auto& s : shards_) {
      std::vector<const model::ApiObject*> part = s->PeekAll(kind);
      out.insert(out.end(), part.begin(), part.end());
    }
    if (shards_.size() > 1) {
      std::sort(out.begin(), out.end(),
                [](const model::ApiObject* a, const model::ApiObject* b) {
                  return a->Key() < b->Key();
                });
    }
    return out;
  }
  std::map<std::string, std::uint64_t> VersionMap(
      const std::string& kind) const {
    std::map<std::string, std::uint64_t> out;
    for (const auto& s : shards_) {
      std::map<std::string, std::uint64_t> part = s->VersionMap(kind);
      out.insert(part.begin(), part.end());
    }
    return out;
  }
  std::size_t object_count() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->object_count();
    return n;
  }
  void SeedObject(model::ApiObject obj) {
    shard_for_key(obj.Key()).SeedObject(std::move(obj));
  }

  // Shard 0's recorder (single-server call sites); per-shard metrics
  // via shard(i).metrics().
  MetricsRecorder& metrics() { return shards_.front()->metrics(); }

 private:
  ShardRouter router_;
  std::vector<std::unique_ptr<ApiServer>> shards_;
};

}  // namespace kd::apiserver
