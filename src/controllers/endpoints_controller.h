// The Endpoints controller — the §5 Pod-discovery leg that connects
// the narrow waist's output (Running pods, published via the API
// server in both modes) to the data plane.
//
// Watches Services and Pods through the API server and maintains the
// ready-address set per Service (selector: the "app" label). The two
// propagation paths of Fig. 8b:
//   K8s — batches pod changes for `endpoints_batch_window`, then
//         writes one Endpoints object through the (rate-limited) API
//         server; KubeProxy learns via its Endpoints informer.
//   Kd  — a read-only transformation needs no state-management
//         machinery: the address list streams directly to KubeProxy
//         over a level-triggered ("__none__") KubeDirect link at
//         sub-millisecond latency, no API write.
//
// Each Service's ready addresses live in one sorted copy-on-write
// array that the pod handlers edit in place. A Kd publish sends that
// array by handle: the upsert, last_sent_ and KubeProxy's table share
// it, and the wire is still charged for the whole list. The next edit
// detaches a private copy, so a sent list never changes under its
// readers. Either way the Gateway consumes real Endpoints state, not a
// simulation shortcut.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/lane.h"
#include "controllers/types.h"
#include "runtime/harness.h"

namespace kd::controllers {

class KD_LANE_OWNED(endpoints) EndpointsController {
 public:
  EndpointsController(runtime::Env& env, Mode mode);

  void Start() { harness_.Start(); }
  void Crash() { harness_.Crash(); }
  void Restart() { harness_.Restart(); }

  // Fault-injection seams (crash-point sweep).
  runtime::ControllerHarness& harness() { return harness_; }

  bool link_ready() const { return harness_.link_ready(); }

  // Current ready-address view for `service` (test observability).
  std::vector<std::string> AddressesFor(const std::string& service) const;
  // Informer-synced Service/Pod view (test observability: the property
  // walk checks it reconverges to the API server after an outage).
  const runtime::ObjectCache& cache() const { return cache_; }

 private:
  Duration Reconcile(const std::string& service_name);
  // Routes a pod mutation into the per-service address set; enqueues
  // the service behind the mode's batching window when the set changed.
  void OnPodChange(const model::ApiObject* before,
                   const model::ApiObject* after);
  // kd_direct_endpoint_publish ingest: "up/down/reset" announcements
  // streamed straight from kubelets, bypassing the API server — keeps
  // routing fresh through an API outage. Idempotent against the
  // informer-fed path (both mutate the same address sets).
  void AcceptDirectStream(net::ConnHandlePtr conn);
  void OnDirectMessage(const std::string& text);
  // Edit `service`'s sorted list; true when the list changed.
  bool AddAddress(const std::string& service, const std::string& ip);
  bool RemoveAddress(const std::string& service, const std::string& ip);
  // `service`'s list by handle (an empty array when it has none).
  model::Value ListFor(const std::string& service) const;

  runtime::Env& env_;
  Mode mode_;
  runtime::ControllerHarness harness_;
  runtime::ObjectCache cache_;  // Services + Pods (+ Endpoints in K8s)

  // service -> sorted array of ready pod IPs, maintained incrementally
  // by the pod change handlers (reconcile publishes, it never re-scans
  // pods).
  std::map<std::string, model::Value> addresses_;
  // Kd: the list handle last streamed per service (level-triggered
  // resend after link resets). Equal to addresses_'s entry, usually
  // by sharing it, when there is nothing new to send.
  std::map<std::string, model::Value> last_sent_;

  // Direct-stream bookkeeping: node -> pod key -> (service, ip). A
  // node's entries are dropped wholesale on its "reset" (new kubelet
  // incarnation resyncs its full set right after).
  std::map<std::string,
           std::map<std::string, std::pair<std::string, std::string>>>
      direct_eps_;
  std::vector<net::ConnHandlePtr> direct_conns_;
};

}  // namespace kd::controllers
