// The Kubelet — step ⑤ of the critical path (Fig. 1), the tail of the
// narrow waist and the source of truth of the hierarchical cache.
//
// Receives bound pods (field-selector informer in K8s mode; direct
// messages in Kd mode), creates the sandbox through a configurable
// sandbox manager model (stock containerd-style vs Dirigent's lean
// manager — the K8s+/Kd+ baselines of Fig. 8), and *publishes* ready
// pods through the API server in both modes: the paper's prototype
// keeps step ⑤ on the API server for ecosystem compatibility, and the
// Kubelet's API rate limits still apply (§7 "Stability").
//
// Termination: executes Tombstones, evictions, and node drains; every
// removal emits the upstream invalidation signal that drives the
// write-back cache (§4.2-4.3).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/lane.h"
#include "controllers/types.h"
#include "runtime/harness.h"

namespace kd::controllers {

// Sandbox-manager performance envelope (Fig. 8's "Sandbox Manager"
// column): stock Kubelet/containerd vs Dirigent's custom manager.
struct SandboxParams {
  Duration cold_start;
  int concurrency;

  static SandboxParams Stock(const CostModel& cost) {
    return {cost.kubelet_cold_start, cost.kubelet_startup_concurrency};
  }
  static SandboxParams Dirigent(const CostModel& cost) {
    return {cost.dirigent_cold_start, cost.dirigent_startup_concurrency};
  }
};

class KD_LANE_OWNED(kubelet) Kubelet {
 public:
  Kubelet(runtime::Env& env, Mode mode, std::string node_name,
          SandboxParams sandbox);

  void Start() { harness_.Start(); }
  void Crash() { harness_.Crash(); }
  void Restart() { harness_.Restart(); }

  // Fault-injection seams (crash-point sweep).
  runtime::ControllerHarness& harness() { return harness_; }

  const std::string& node_name() const { return node_name_; }

  // Local resource-pressure eviction (the trigger of Anomaly #1): the
  // pod is terminated locally and the upstream is informed through the
  // backward link — never resurrected.
  void Evict(const std::string& pod_key);

  // Observability.
  std::size_t running_pods() const;
  const runtime::ObjectCache& cache() const { return cache_; }
  // Pods with per-pod bookkeeping still held (PodRecord below).
  std::size_t pod_records() const { return records_.size(); }

 private:
  // What the Kubelet remembers about one pod besides its cache entry.
  // A record with nothing set is erased.
  struct PodRecord {
    bool starting = false;   // sandbox start queued or in flight
    bool published = false;  // created/updated in the API
    // Between the Upsert's arrival and the end of kd_materialize; a
    // tombstone landing then condemns the pod instead of being answered
    // as unknown.
    bool materializing = false;
    bool condemned = false;
    std::optional<Time> started_at;  // bind arrival, until published

    bool empty() const {
      return !starting && !published && !materializing && !condemned &&
             !started_at.has_value();
    }
  };
  // The pod's record, or nullptr.
  const PodRecord* FindRecord(const std::string& pod_key) const;
  // Clears `flag` in the pod's record, erasing the record if that left
  // it empty; returns whether the flag was set.
  bool ClearFlag(const std::string& pod_key, bool PodRecord::*flag);

  void OnPodMessage(const kubedirect::KdMessage& msg);
  void OnPodBound(model::ApiObject pod);
  void StartSandbox(const std::string& pod_key);
  void PumpSandboxQueue();
  void OnSandboxReady(const std::string& pod_key);
  void Publish(const model::ApiObject& pod);
  void Terminate(const std::string& pod_key, bool notify_upstream);
  // Durable unpublish: deletes a terminated pod's API record, retrying
  // across outages until the server confirms it gone (NotFound counts
  // — an earlier attempt or a parallel eviction delete won).
  void DeletePublished(const std::string& pod_key);
  void DrainAllKdPods();
  // Start and crash recovery: lists the pods bound to this node,
  // retrying until the list succeeds, and re-adopts the published
  // (Running) ones. K8s: then seeds watch_cache_ with all of them
  // (bound before the watch, or during an outage). Kd: then opens the
  // upstream server. Serving a handshake before the adopt completes
  // would show the Scheduler an empty version map and make it
  // invalidate pods that are in fact still running here.
  // The watches are armed before the List, so its snapshot can be
  // older than what they delivered: a listed pod that a watch event
  // deleted meanwhile is skipped, and a seed never replaces a copy the
  // watch cache holds at the same or a newer version.
  void AdoptBoundPods();
  std::string AssignIp();

  // --- direct endpoint stream (kd_direct_endpoint_publish) ----------
  // Graceful degradation of pod discovery: ready/terminated endpoint
  // announcements go straight to the Endpoints controller over a raw
  // link, so service routing survives an API-server outage (the API
  // publish of step ⑤ still happens for ecosystem compatibility).
  bool DirectEndpointsEnabled() const;
  void EnsureEndpointStream();
  void AnnounceEndpointUp(const model::ApiObject& pod);
  void AnnounceEndpointDown(const std::string& pod_key);

  runtime::Env& env_;
  Mode mode_;
  std::string node_name_;
  SandboxParams sandbox_;
  runtime::ControllerHarness harness_;
  runtime::ObjectCache cache_;  // its pods (+ ReplicaSets in Kd mode)
  // The API server's objects for this node, fed by a field-selector
  // informer (a full list sync per kubelet would be O(M^2)
  // cluster-wide at boot): the Node in Kd mode, which carries the
  // drain signal (§4.3); the pods bound here in K8s mode.
  runtime::ObjectCache watch_cache_;
  MetricsRecorder::Span span_ = env_.metrics.ResolveSpan("kubelet");
  MetricsRecorder::Counter sandboxes_started_ =
      env_.metrics.ResolveCounter("sandboxes_started");
  MetricsRecorder::Counter pods_published_ =
      env_.metrics.ResolveCounter("pods_published");
  MetricsRecorder::Counter pods_terminated_ =
      env_.metrics.ResolveCounter("pods_terminated");
  MetricsRecorder::Counter nodes_drained_ =
      env_.metrics.ResolveCounter("nodes_drained");
  MetricsRecorder::Samples sandbox_ready_latency_ =
      env_.metrics.ResolveSamples("sandbox_ready_latency");
  MetricsRecorder::Samples pod_latency_ =
      env_.metrics.ResolveSamples("kubelet_pod_latency");

  // Sandbox startup pipeline: bounded concurrency, FIFO admission.
  std::deque<std::string> sandbox_queue_;
  int active_starts_ = 0;

  // Per-pod records by pod key: one table, only looked up by key, so it
  // hashes (1,500 Kubelets keep one bucket array each, not five).
  std::unordered_map<std::string, PodRecord> records_;
  // K8s: the field-selector informer of the pods bound here; it
  // remembers watch deletes while the adopt List is in flight.
  runtime::Informer* bound_pods_ = nullptr;
  std::uint32_t ip_counter_ = 0;

  // Direct endpoint stream state: announced pods (key -> service, ip)
  // resynced level-triggered on every (re)connect.
  net::ConnHandlePtr ep_stream_;
  bool ep_stream_connecting_ = false;
  std::map<std::string, std::pair<std::string, std::string>> ep_announced_;
};

}  // namespace kd::controllers
