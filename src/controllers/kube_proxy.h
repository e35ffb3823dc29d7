// KubeProxy — the data-plane consumer of the Endpoints state (§5).
//
// Maintains the per-Service ready-address table the Gateway routes
// with:
//   K8s — an Endpoints informer (List + watch through the API server)
//         mirrors the objects the Endpoints controller writes;
//   Kd  — a KubeDirect HierarchyServer receives the address lists the
//         Endpoints controller streams directly (level-triggered
//         "__none__" link, no API server on the path).
//
// The table keeps each received list as the array Value it arrived as
// (in Kd mode, shared with the sender); strings are only built for a
// reader. The sink fires with the full current list whenever a
// Service's addresses change — the same contract
// faas::Backend::EndpointSink exposes, so the Gateway is
// transport-agnostic.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/lane.h"
#include "controllers/types.h"
#include "runtime/harness.h"

namespace kd::controllers {

class KD_LANE_OWNED(kubeproxy) KubeProxy {
 public:
  using Sink = std::function<void(const std::string& service,
                                  const std::vector<std::string>& addresses)>;

  KubeProxy(runtime::Env& env, Mode mode);

  void Start() { harness_.Start(); }
  void Crash() { harness_.Crash(); }
  void Restart() { harness_.Restart(); }

  // Fault-injection seams (crash-point sweep).
  runtime::ControllerHarness& harness() { return harness_; }

  void SetSink(Sink sink) { sink_ = std::move(sink); }

  // Current routing table entry (test observability).
  std::vector<std::string> AddressesFor(const std::string& service) const;

 private:
  void Publish(const std::string& service);

  runtime::Env& env_;
  Mode mode_;
  runtime::ControllerHarness harness_;
  runtime::ObjectCache ep_cache_;  // K8s: Endpoints (informer)

  Sink sink_;
  // service -> address array (Endpoints spec.addresses shape).
  std::map<std::string, model::Value> table_;
};

}  // namespace kd::controllers
