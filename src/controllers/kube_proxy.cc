#include "controllers/kube_proxy.h"

#include "model/objects.h"

namespace kd::controllers {

using model::ApiObject;
using model::kKindEndpoints;

KubeProxy::KubeProxy(runtime::Env& env, Mode mode)
    : env_(env),
      mode_(mode),
      harness_(env, mode,
               {.name = "kubeproxy",
                .client_id = "kube-proxy",
                .address = Addresses::KubeProxy(),
                .qps = env.cost.controller_qps,
                .burst = env.cost.controller_burst,
                .api_metrics = false}) {
  // K8s path: mirror the Endpoints objects through the API server.
  ep_cache_.AddChangeHandler([this](const std::string& key,
                                    const ApiObject* before,
                                    const ApiObject* after) {
    (void)key;
    if (after != nullptr && after->kind == kKindEndpoints) {
      table_[after->name] = after->spec["addresses"];
      Publish(after->name);
    } else if (before != nullptr && after == nullptr &&
               before->kind == kKindEndpoints) {
      table_.erase(before->name);
      Publish(before->name);
    }
  });
  harness_.SyncKind(ep_cache_, kKindEndpoints,
                    runtime::ControllerHarness::When::kK8sOnly);

  // Kd path: the Endpoints controller streams address lists directly.
  runtime::ControllerHarness::UpstreamSpec upstream;
  upstream.kind_filter = "__none__";
  upstream.callbacks.on_upsert = [this](const kubedirect::KdMessage& msg) {
    const std::size_t slash = msg.obj_key.find('/');
    if (slash == std::string::npos) return;
    const std::string service = msg.obj_key.substr(slash + 1);
    auto it = msg.attrs.find("spec.addresses");
    if (it == msg.attrs.end() || it->second.is_pointer()) return;
    table_[service] = it->second.literal();
    Publish(service);
  };
  harness_.ServeUpstream(std::move(upstream));

  harness_.OnCrash([this] { table_.clear(); });
}

std::vector<std::string> KubeProxy::AddressesFor(
    const std::string& service) const {
  auto it = table_.find(service);
  return it == table_.end() ? std::vector<std::string>{}
                            : model::AddressStrings(it->second);
}

void KubeProxy::Publish(const std::string& service) {
  if (!sink_) return;
  sink_(service, AddressesFor(service));
}

}  // namespace kd::controllers
