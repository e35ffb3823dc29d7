#include "controllers/endpoints_controller.h"

#include <algorithm>

#include "common/strings.h"
#include "model/objects.h"

namespace kd::controllers {

using model::ApiObject;
using model::kKindEndpoints;
using model::kKindPod;
using model::kKindService;

namespace {

// Where `ip` sits, or would be inserted, in a sorted address array, and
// whether it is there.
std::pair<std::size_t, bool> Locate(const model::Value& list,
                                    const std::string& ip) {
  const model::Value::Array& addrs = list.array();
  auto it = std::lower_bound(
      addrs.begin(), addrs.end(), ip,
      [](const model::Value& a, const std::string& b) {
        return a.as_string() < b;
      });
  return {static_cast<std::size_t>(it - addrs.begin()),
          it != addrs.end() && it->as_string() == ip};
}

}  // namespace

EndpointsController::EndpointsController(runtime::Env& env, Mode mode)
    : env_(env),
      mode_(mode),
      harness_(env, mode,
               {.name = "endpoints",
                .client_id = "endpoints-controller",
                .address = Addresses::EndpointsController(),
                .qps = env.cost.controller_qps,
                .burst = env.cost.controller_burst}) {
  harness_.SetReconciler(
      [this](const std::string& key) { return Reconcile(key); });
  cache_.AddChangeHandler([this](const std::string& key,
                                 const ApiObject* before,
                                 const ApiObject* after) {
    (void)key;
    const ApiObject* obj = after != nullptr ? after : before;
    if (obj == nullptr) return;
    if (obj->kind == kKindPod) {
      OnPodChange(before, after);
    } else if (obj->kind == kKindService && after != nullptr) {
      // A new Service may select pods that arrived first.
      harness_.loop().Enqueue(after->name);
    }
  });
  harness_.SyncKind(cache_, kKindService);
  harness_.SyncKind(cache_, kKindPod);
  // K8s path only: read-modify-write of the Endpoints objects we own.
  harness_.SyncKind(cache_, kKindEndpoints,
                    runtime::ControllerHarness::When::kK8sOnly);

  // Kd path (the harness only dials it in Kd mode): the direct stream
  // to KubeProxy.
  runtime::ControllerHarness::DownstreamSpec link;
  link.peer = Addresses::KubeProxy();
  link.kind_filter = "__none__";
  link.callbacks.on_ready = [this](const kubedirect::ChangeSet&) {
    // Level-triggered: resend every address list after a handshake.
    last_sent_.clear();
    for (const ApiObject* svc : cache_.List(kKindService)) {
      harness_.loop().Enqueue(svc->name);
    }
  };
  link.callbacks.on_down = [this] { last_sent_.clear(); };
  harness_.ConnectDownstream(std::move(link));

  harness_.OnStart([this] {
    if (mode_ != Mode::kKd || !env_.cost.kd_direct_endpoint_publish) return;
    harness_.endpoint().Listen(
        [this](net::ConnHandlePtr conn) { AcceptDirectStream(conn); });
  });

  harness_.OnCrash([this] {
    addresses_.clear();
    last_sent_.clear();
    direct_eps_.clear();
    direct_conns_.clear();
    harness_.endpoint().StopListening();
  });
}

void EndpointsController::AcceptDirectStream(net::ConnHandlePtr conn) {
  conn->set_on_message([this](net::Payload payload) {
    std::shared_ptr<const std::string> text = payload.body<std::string>();
    if (text != nullptr && !harness_.crashed()) OnDirectMessage(*text);
  });
  net::ConnHandle* raw = conn.get();
  conn->set_on_disconnect([this, raw] {
    for (auto it = direct_conns_.begin(); it != direct_conns_.end(); ++it) {
      if (it->get() == raw) {
        direct_conns_.erase(it);
        break;
      }
    }
    // The node's announcements stay: its pods are still serving; only
    // an explicit "reset" (kubelet restart) or informer-observed
    // deletion withdraws them.
  });
  direct_conns_.push_back(std::move(conn));
}

void EndpointsController::OnDirectMessage(const std::string& text) {
  const std::vector<std::string> parts = StrSplit(text, ' ');
  if (parts.empty()) return;
  auto withdraw = [this](const std::string& service, const std::string& ip) {
    if (RemoveAddress(service, ip)) {
      harness_.loop().EnqueueAfter(service,
                                   env_.cost.kd_endpoint_stream_latency);
    }
  };
  if (parts[0] == "up" && parts.size() == 5) {
    const std::string& node = parts[1];
    const std::string& pod_key = parts[2];
    const std::string& service = parts[3];
    const std::string& ip = parts[4];
    direct_eps_[node][pod_key] = {service, ip};
    if (AddAddress(service, ip)) {
      harness_.loop().EnqueueAfter(service,
                                   env_.cost.kd_endpoint_stream_latency);
    }
  } else if (parts[0] == "down" && parts.size() == 3) {
    auto node_it = direct_eps_.find(parts[1]);
    if (node_it == direct_eps_.end()) return;
    auto pod_it = node_it->second.find(parts[2]);
    if (pod_it == node_it->second.end()) return;
    withdraw(pod_it->second.first, pod_it->second.second);
    node_it->second.erase(pod_it);
  } else if (parts[0] == "reset" && parts.size() == 2) {
    auto node_it = direct_eps_.find(parts[1]);
    if (node_it == direct_eps_.end()) return;
    for (const auto& [pod_key, entry] : node_it->second) {
      withdraw(entry.first, entry.second);
    }
    direct_eps_.erase(node_it);
  }
}

void EndpointsController::OnPodChange(const ApiObject* before,
                                      const ApiObject* after) {
  // Ready = Running with an IP and not Terminating — the condition the
  // Gateway can route to.
  auto ready_ip = [](const ApiObject* pod) -> std::string {
    if (pod == nullptr) return "";
    if (model::GetPodPhase(*pod) != model::PodPhase::kRunning) return "";
    if (model::IsTerminating(*pod)) return "";
    return model::GetPodIp(*pod);
  };
  auto service_of = [](const ApiObject* pod) -> std::string {
    return pod == nullptr ? "" : model::GetLabel(*pod, "app");
  };

  bool changed = false;
  std::string service;
  const std::string prev_ip = ready_ip(before);
  const std::string next_ip = ready_ip(after);
  if (!prev_ip.empty() && prev_ip == next_ip &&
      service_of(before) == service_of(after)) {
    // Still ready at the same Service and IP: the remove + add this
    // update stands for leaves the list as it was (the add restores an
    // address a direct-stream withdrawal took out), and it publishes
    // like any other change.
    service = service_of(after);
    if (service.empty()) return;
    AddAddress(service, next_ip);
    changed = true;
  } else {
    if (!prev_ip.empty()) {
      service = service_of(before);
      if (!service.empty() && RemoveAddress(service, prev_ip)) changed = true;
    }
    if (!next_ip.empty()) {
      service = service_of(after);
      if (!service.empty() && AddAddress(service, next_ip)) changed = true;
    }
  }
  if (!changed || service.empty()) return;

  // Batching: the loop's workqueue dedup folds every pod change inside
  // the window into one publish of the *latest* address set.
  const Duration window = mode_ == Mode::kKd
                              ? env_.cost.kd_endpoint_stream_latency
                              : env_.cost.endpoints_batch_window;
  harness_.loop().EnqueueAfter(service, window);
}

bool EndpointsController::AddAddress(const std::string& service,
                                     const std::string& ip) {
  auto it = addresses_.find(service);
  if (it == addresses_.end()) {
    it = addresses_.emplace(service, model::Value::MakeArray()).first;
  }
  const auto [at, present] = Locate(it->second, ip);
  if (present) return false;
  it->second.InsertAt(at, ip);
  return true;
}

bool EndpointsController::RemoveAddress(const std::string& service,
                                        const std::string& ip) {
  auto it = addresses_.find(service);
  if (it == addresses_.end()) return false;
  const auto [at, present] = Locate(it->second, ip);
  if (!present) return false;
  it->second.EraseAt(at);
  return true;
}

model::Value EndpointsController::ListFor(const std::string& service) const {
  auto it = addresses_.find(service);
  return it == addresses_.end() ? model::Value::MakeArray() : it->second;
}

std::vector<std::string> EndpointsController::AddressesFor(
    const std::string& service) const {
  return model::AddressStrings(ListFor(service));
}

Duration EndpointsController::Reconcile(const std::string& service_name) {
  const ApiObject* svc =
      cache_.Get(ApiObject::MakeKey(kKindService, service_name));
  if (svc == nullptr) return 0;

  span_.MarkStart(env_.engine.now());
  if (mode_ == Mode::kKd) {
    kubedirect::HierarchyClient* downstream = harness_.downstream();
    if (downstream == nullptr || !downstream->ready()) {
      return 0;  // re-sent on_ready
    }
    model::Value list = ListFor(service_name);
    auto sent = last_sent_.find(service_name);
    if (sent != last_sent_.end() && sent->second == list) return 0;
    kubedirect::KdMessage msg;
    msg.obj_key = ApiObject::MakeKey(kKindEndpoints, service_name);
    msg.attrs.emplace("spec.addresses", kubedirect::KdValue::Literal(list));
    downstream->SendUpsert(std::move(msg));
    last_sent_[service_name] = std::move(list);
    span_.MarkStop(env_.engine.now());
    return 0;
  }

  // K8s path: one Endpoints object write per batch window.
  const std::vector<std::string> addrs = AddressesFor(service_name);
  const ApiObject* existing =
      cache_.Get(ApiObject::MakeKey(kKindEndpoints, service_name));
  if (existing != nullptr && model::GetEndpointsAddresses(*existing) == addrs) {
    span_.MarkStop(env_.engine.now());
    return 0;
  }
  auto on_done = [this, service_name](StatusOr<ApiObject> result) {
    span_.MarkStop(env_.engine.now());
    if (!result.ok()) {
      // Conflict or transient failure: retry with the refreshed cache.
      if (!harness_.crashed()) {
        harness_.loop().EnqueueAfter(service_name, Milliseconds(5));
      }
      return;
    }
    // kdlint: allow(R5) write-through of the API response; waiting for the watch echo would double round-trip latency
    cache_.Upsert(std::move(*result));
  };
  if (existing == nullptr) {
    harness_.api().Create(model::MakeEndpoints(service_name, addrs),
                          std::move(on_done));
  } else {
    ApiObject updated = *existing;
    model::SetEndpointsAddresses(updated, addrs);
    harness_.api().Update(std::move(updated), std::move(on_done));
  }
  return 0;
}

}  // namespace kd::controllers
