#include "model/objects.h"

#include "common/check.h"
#include "common/strings.h"

namespace kd::model {

const char* PodPhaseName(PodPhase phase) {
  switch (phase) {
    case PodPhase::kPending: return "Pending";
    case PodPhase::kRunning: return "Running";
    case PodPhase::kTerminating: return "Terminating";
  }
  return "Unknown";
}

std::string ApiObject::Serialize() const {
  Value root = Value::MakeObject();
  root["kind"] = kind;
  root["name"] = name;
  root["resourceVersion"] = static_cast<std::int64_t>(resource_version);
  root["metadata"] = metadata;
  root["spec"] = spec;
  root["status"] = status;
  return root.Serialize();
}

std::size_t ApiObject::SerializedSize() const {
  // Mirrors Serialize() exactly: a root object whose keys sort to
  // kind, metadata, name, resourceVersion, spec, status. Fixed costs:
  // 2 braces + 5 commas + 6 colons + the six quoted keys
  // (6+10+6+17+6+8 = 53 bytes) = 66.
  return 66 + JsonStringSize(kind) + JsonStringSize(name) +
         JsonIntSize(static_cast<std::int64_t>(resource_version)) +
         metadata.SerializedSize() + spec.SerializedSize() +
         status.SerializedSize();
}

std::size_t ApiObject::SerializedEscapes() const {
  // The quotes of the six keys (12), then the components.
  return 12 + JsonStringEscapes(kind) + JsonStringEscapes(name) +
         metadata.SerializedEscapes() + spec.SerializedEscapes() +
         status.SerializedEscapes();
}

StatusOr<ApiObject> ApiObject::Parse(const std::string& text) {
  StatusOr<Value> root = Value::Parse(text);
  if (!root.ok()) return root.status();
  const Value& v = *root;
  if (!v.is_object() || !v["kind"].is_string() || !v["name"].is_string()) {
    return InvalidArgumentError("not an ApiObject");
  }
  ApiObject obj;
  obj.kind = v["kind"].as_string();
  obj.name = v["name"].as_string();
  obj.resource_version =
      static_cast<std::uint64_t>(v["resourceVersion"].as_int());
  obj.metadata = v["metadata"];
  obj.spec = v["spec"];
  obj.status = v["status"];
  return obj;
}

std::uint64_t ApiObject::ContentHash() const {
  Value root = Value::MakeObject();
  root["kind"] = kind;
  root["name"] = name;
  root["metadata"] = metadata;
  root["spec"] = spec;
  root["status"] = status;
  return root.Hash();
}

bool ApiObject::operator==(const ApiObject& other) const {
  return kind == other.kind && name == other.name &&
         resource_version == other.resource_version &&
         metadata == other.metadata && spec == other.spec &&
         status == other.status;
}

// --- metadata helpers ---------------------------------------------------

void SetLabel(ApiObject& obj, const std::string& key,
              const std::string& value) {
  obj.metadata["labels"][key] = value;
}
const std::string& GetLabel(const ApiObject& obj, std::string_view key) {
  return obj.metadata["labels"][key].as_string();
}
void SetAnnotation(ApiObject& obj, const std::string& key,
                   const std::string& value) {
  obj.metadata["annotations"][key] = value;
}
const std::string& GetAnnotation(const ApiObject& obj, std::string_view key) {
  return obj.metadata["annotations"][key].as_string();
}

bool IsKubeDirectManaged(const ApiObject& obj) {
  return GetAnnotation(obj, kKubeDirectAnnotation) == "true";
}
void SetKubeDirectManaged(ApiObject& obj, bool managed) {
  SetAnnotation(obj, kKubeDirectAnnotation, managed ? "true" : "false");
}

void SetOwner(ApiObject& obj, const std::string& kind,
              const std::string& name) {
  Value owner = Value::MakeObject();
  owner["kind"] = kind;
  owner["name"] = name;
  obj.metadata["ownerReference"] = std::move(owner);
}
const std::string& GetOwnerName(const ApiObject& obj) {
  return obj.metadata["ownerReference"]["name"].as_string();
}
const std::string& GetOwnerKind(const ApiObject& obj) {
  return obj.metadata["ownerReference"]["kind"].as_string();
}

// --- typed accessors ----------------------------------------------------

std::int64_t GetReplicas(const ApiObject& obj) {
  return obj.spec["replicas"].as_int();
}
void SetReplicas(ApiObject& obj, std::int64_t n) { obj.spec["replicas"] = n; }

std::int64_t GetReadyReplicas(const ApiObject& obj) {
  return obj.status["readyReplicas"].as_int();
}
void SetReadyReplicas(ApiObject& obj, std::int64_t n) {
  obj.status["readyReplicas"] = n;
}

const std::string& GetNodeName(const ApiObject& pod) {
  return pod.spec["nodeName"].as_string();
}
void SetNodeName(ApiObject& pod, const std::string& node) {
  pod.spec["nodeName"] = node;
}

PodPhase GetPodPhase(const ApiObject& pod) {
  // Compared in place against PodPhaseName; an absent or unknown phase
  // reads as Pending.
  const std::string& phase = pod.status["phase"].as_string();
  if (phase == PodPhaseName(PodPhase::kRunning)) return PodPhase::kRunning;
  if (phase == PodPhaseName(PodPhase::kTerminating)) {
    return PodPhase::kTerminating;
  }
  return PodPhase::kPending;
}

void SetPodPhase(ApiObject& pod, PodPhase phase) {
  // Kubernetes convention: Terminating is irreversible (§4.3). Callers
  // that would "revive" a pod indicate a state-management bug.
  KD_CHECK(!(GetPodPhase(pod) == PodPhase::kTerminating &&
             phase != PodPhase::kTerminating),
           "Pod lifecycle violation: Terminating is irreversible");
  pod.status["phase"] = PodPhaseName(phase);
}

bool IsTerminating(const ApiObject& pod) {
  return GetPodPhase(pod) == PodPhase::kTerminating;
}
void MarkTerminating(ApiObject& pod) {
  pod.status["phase"] = PodPhaseName(PodPhase::kTerminating);
}

const std::string& GetPodIp(const ApiObject& pod) {
  return pod.status["podIP"].as_string();
}
void SetPodIp(ApiObject& pod, const std::string& ip) {
  pod.status["podIP"] = ip;
}

std::int64_t GetCpuMilli(const ApiObject& obj) {
  if (obj.kind == kKindNode) return obj.spec["capacity"]["cpuMilli"].as_int();
  return obj.spec["resources"]["cpuMilli"].as_int();
}
void SetCpuMilli(ApiObject& obj, std::int64_t milli) {
  if (obj.kind == kKindNode) {
    obj.spec["capacity"]["cpuMilli"] = milli;
  } else {
    obj.spec["resources"]["cpuMilli"] = milli;
  }
}

std::int64_t GetMemoryMb(const ApiObject& obj) {
  if (obj.kind == kKindNode) return obj.spec["capacity"]["memoryMb"].as_int();
  return obj.spec["resources"]["memoryMb"].as_int();
}
void SetMemoryMb(ApiObject& obj, std::int64_t mb) {
  if (obj.kind == kKindNode) {
    obj.spec["capacity"]["memoryMb"] = mb;
  } else {
    obj.spec["resources"]["memoryMb"] = mb;
  }
}

bool IsNodeInvalid(const ApiObject& node) {
  return node.spec["invalid"].as_bool();
}
void SetNodeInvalid(ApiObject& node, bool invalid) {
  node.spec["invalid"] = invalid;
}

void SetNodePool(ApiObject& node, const std::string& pool) {
  node.spec["pool"] = pool;
}

std::int64_t GetNodeReclaimAtMs(const ApiObject& node) {
  return node.spec["reclaimAtMs"].as_int();
}
void SetNodeReclaimAtMs(ApiObject& node, std::int64_t at_ms) {
  node.spec["reclaimAtMs"] = at_ms;
}

std::int64_t GetRevision(const ApiObject& obj) {
  return obj.spec["revision"].as_int();
}
void SetRevision(ApiObject& obj, std::int64_t rev) {
  obj.spec["revision"] = rev;
}

// --- factories -----------------------------------------------------------

namespace {

Value MakeContainer(const std::string& name, const std::string& image,
                    std::int64_t cpu_milli, std::int64_t memory_mb,
                    int env_count) {
  Value c = Value::MakeObject();
  c["name"] = name;
  c["image"] = image;
  c["imagePullPolicy"] = "IfNotPresent";
  c["workingDir"] = "/workspace";
  Value args = Value::MakeArray();
  args.push_back("--listen=0.0.0.0:8080");
  args.push_back("--graceful-shutdown=30s");
  c["args"] = std::move(args);

  Value env = Value::MakeArray();
  for (int i = 0; i < env_count; ++i) {
    Value e = Value::MakeObject();
    e["name"] = StrFormat("FAAS_RUNTIME_SETTING_%02d", i);
    e["value"] = StrFormat(
        "value-%02d-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", i);
    env.push_back(std::move(e));
  }
  c["env"] = std::move(env);

  Value resources = Value::MakeObject();
  resources["requests"]["cpuMilli"] = cpu_milli;
  resources["requests"]["memoryMb"] = memory_mb;
  resources["limits"]["cpuMilli"] = cpu_milli * 2;
  resources["limits"]["memoryMb"] = memory_mb * 2;
  c["resources"] = std::move(resources);

  Value probe = Value::MakeObject();
  probe["httpGet"]["path"] = "/healthz";
  probe["httpGet"]["port"] = 8080;
  probe["initialDelaySeconds"] = 0;
  probe["periodSeconds"] = 1;
  probe["failureThreshold"] = 3;
  c["readinessProbe"] = probe;
  c["livenessProbe"] = std::move(probe);

  Value mounts = Value::MakeArray();
  for (int i = 0; i < 4; ++i) {
    Value m = Value::MakeObject();
    m["name"] = StrFormat("volume-%d", i);
    m["mountPath"] = StrFormat("/var/run/faas/mount-%d", i);
    m["readOnly"] = (i % 2 == 0);
    mounts.push_back(std::move(m));
  }
  c["volumeMounts"] = std::move(mounts);
  return c;
}

}  // namespace

Value RealisticPodTemplateSpec(const std::string& function_name,
                               std::int64_t cpu_milli,
                               std::int64_t memory_mb) {
  Value spec = Value::MakeObject();
  spec["serviceAccountName"] = "faas-runtime";
  spec["restartPolicy"] = "Always";
  spec["terminationGracePeriodSeconds"] = 30;
  spec["dnsPolicy"] = "ClusterFirst";
  spec["schedulerName"] = "default-scheduler";
  spec["priorityClassName"] = "faas-standard";

  Value containers = Value::MakeArray();
  // The user function container plus the queue-proxy sidecar Knative
  // injects.
  containers.push_back(MakeContainer(
      "user-container",
      "registry.example.com/faas/" + function_name + ":latest", cpu_milli,
      memory_mb, /*env_count=*/8));
  containers.push_back(MakeContainer(
      "queue-proxy", "registry.example.com/knative/queue-proxy:v1.15",
      25, 64, /*env_count=*/6));
  spec["containers"] = std::move(containers);

  // The bulk that puts production pods in the ~17 KB band (injected
  // env blocks, certificates, managed-fields noise). Carried as one
  // opaque blob so thousands of cached template copies stay cheap in
  // host memory while the *wire* cost stays realistic.
  std::string padding;
  padding.reserve(12'000);
  while (padding.size() < 12'000) {
    padding += "managedFieldsAndInjectedRuntimeConfiguration/";
    padding += function_name;
    padding += ';';
  }
  spec["runtimeConfigBlob"] = std::move(padding);

  Value volumes = Value::MakeArray();
  for (int i = 0; i < 4; ++i) {
    Value v = Value::MakeObject();
    v["name"] = StrFormat("volume-%d", i);
    v["emptyDir"]["sizeLimit"] = "128Mi";
    volumes.push_back(std::move(v));
  }
  spec["volumes"] = std::move(volumes);

  Value tolerations = Value::MakeArray();
  for (int i = 0; i < 3; ++i) {
    Value t = Value::MakeObject();
    t["key"] = StrFormat("node.kubernetes.io/condition-%d", i);
    t["operator"] = "Exists";
    t["effect"] = "NoExecute";
    t["tolerationSeconds"] = 300;
    tolerations.push_back(std::move(t));
  }
  spec["tolerations"] = std::move(tolerations);

  spec["resources"]["cpuMilli"] = cpu_milli;
  spec["resources"]["memoryMb"] = memory_mb;
  spec["functionName"] = function_name;
  return spec;
}

Value MinimalPodTemplateSpec(const std::string& function_name) {
  Value spec = Value::MakeObject();
  Value c = Value::MakeObject();
  c["name"] = "user-container";
  c["image"] = function_name + ":latest";
  Value containers = Value::MakeArray();
  containers.push_back(std::move(c));
  spec["containers"] = std::move(containers);
  spec["resources"]["cpuMilli"] = 250;
  spec["resources"]["memoryMb"] = 256;
  spec["functionName"] = function_name;
  return spec;
}

ApiObject MakeDeployment(const std::string& name, std::int64_t replicas,
                         Value pod_template_spec) {
  ApiObject obj;
  obj.kind = kKindDeployment;
  obj.name = name;
  SetReplicas(obj, replicas);
  SetRevision(obj, 1);
  obj.spec["template"]["spec"] = std::move(pod_template_spec);
  SetLabel(obj, "app", name);
  return obj;
}

ApiObject MakeReplicaSet(const std::string& name,
                         const std::string& deployment_name,
                         std::int64_t revision, std::int64_t replicas,
                         Value pod_template_spec) {
  ApiObject obj;
  obj.kind = kKindReplicaSet;
  obj.name = name;
  SetReplicas(obj, replicas);
  SetRevision(obj, revision);
  obj.spec["template"]["spec"] = std::move(pod_template_spec);
  SetOwner(obj, kKindDeployment, deployment_name);
  SetLabel(obj, "app", deployment_name);
  return obj;
}

ApiObject MakePodFromTemplate(const std::string& pod_name,
                              const ApiObject& replicaset) {
  ApiObject pod;
  pod.kind = kKindPod;
  pod.name = pod_name;
  const Value* tmpl = replicaset.spec.FindPath("template.spec");
  KD_CHECK(tmpl != nullptr, "ReplicaSet missing pod template");
  pod.spec = *tmpl;
  SetOwner(pod, kKindReplicaSet, replicaset.name);
  SetLabel(pod, "app", GetOwnerName(replicaset));
  SetPodPhase(pod, PodPhase::kPending);
  return pod;
}

ApiObject MakeNode(const std::string& name, std::int64_t cpu_milli,
                   std::int64_t memory_mb) {
  ApiObject obj;
  obj.kind = kKindNode;
  obj.name = name;
  SetCpuMilli(obj, cpu_milli);
  SetMemoryMb(obj, memory_mb);
  SetNodeInvalid(obj, false);
  return obj;
}

ApiObject MakeEndpoints(const std::string& service_name,
                        const std::vector<std::string>& addresses) {
  ApiObject obj;
  obj.kind = kKindEndpoints;
  obj.name = service_name;
  SetEndpointsAddresses(obj, addresses);
  return obj;
}

void SetEndpointsAddresses(ApiObject& endpoints,
                           const std::vector<std::string>& addresses) {
  Value addrs = Value::MakeArray();
  for (const auto& a : addresses) addrs.push_back(a);
  endpoints.spec["addresses"] = std::move(addrs);
}

std::vector<std::string> GetEndpointsAddresses(const ApiObject& endpoints) {
  return AddressStrings(endpoints.spec["addresses"]);
}

std::vector<std::string> AddressStrings(const Value& addresses) {
  std::vector<std::string> out;
  out.reserve(addresses.array().size());
  for (const Value& a : addresses.array()) out.push_back(a.as_string());
  return out;
}

ApiObject MakeService(const std::string& name) {
  ApiObject obj;
  obj.kind = kKindService;
  obj.name = name;
  obj.spec["selector"]["app"] = name;
  return obj;
}

}  // namespace kd::model
