// Kubernetes API object model: the objects that flow through the
// narrow waist (Deployment -> ReplicaSet -> Pod -> Node binding) plus
// the helpers controllers use to read/write the handful of fields they
// own (replicas, nodeName, phase, ...).
//
// The model is intentionally a faithful miniature of the real API
// surface the paper touches: resourceVersion-based optimistic
// concurrency, ownerReferences, labels/annotations, and the Pod
// lifecycle convention that Terminating is irreversible (§4.3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "model/value.h"

namespace kd::model {

// Kinds used by the narrow waist and its surroundings.
inline constexpr const char* kKindDeployment = "Deployment";
inline constexpr const char* kKindReplicaSet = "ReplicaSet";
inline constexpr const char* kKindPod = "Pod";
inline constexpr const char* kKindNode = "Node";
inline constexpr const char* kKindEndpoints = "Endpoints";
inline constexpr const char* kKindService = "Service";

// Pod lifecycle phases (simplified state diagram of §4.3).
enum class PodPhase { kPending, kRunning, kTerminating };
const char* PodPhaseName(PodPhase phase);

// A complete API object. `resource_version` is assigned by whichever
// store owns the object (the API server, or a KubeDirect controller for
// ephemeral objects).
struct ApiObject {
  std::string kind;
  std::string name;
  std::uint64_t resource_version = 0;
  Value metadata = Value::MakeObject();  // labels, annotations, owner
  Value spec = Value::MakeObject();
  Value status = Value::MakeObject();

  std::string Key() const { return kind + "/" + name; }
  static std::string MakeKey(const std::string& kind,
                             const std::string& name) {
    return kind + "/" + name;
  }

  // Full serialization — this is what traverses the API server and what
  // the "naive direct message passing" ablation (Fig. 14) ships.
  std::string Serialize() const;
  static StatusOr<ApiObject> Parse(const std::string& text);
  // Byte length of Serialize(), computed as a component sum so the
  // metadata/spec/status subtrees answer from their memoized sizes
  // instead of re-serializing ~17 KB per simulated network message.
  std::size_t SerializedSize() const;
  // Number of '"' and '\' bytes in Serialize(), summed the same way
  // (Value::SerializedEscapes).
  std::size_t SerializedEscapes() const;

  // Version tag for the handshake's first-round exchange: any unique
  // number identifying the content (§4.2 — "they can be any unique
  // numbers because we only care for equivalence").
  std::uint64_t ContentHash() const;

  bool operator==(const ApiObject& other) const;
};

// --- generic metadata helpers -----------------------------------------
//
// The string getters return a reference into the object (or to a static
// empty string when the field is absent): it lives as long as the
// object is neither destroyed nor written. Copy it before writing the
// same object.

void SetLabel(ApiObject& obj, const std::string& key,
              const std::string& value);
const std::string& GetLabel(const ApiObject& obj, std::string_view key);
void SetAnnotation(ApiObject& obj, const std::string& key,
                   const std::string& value);
const std::string& GetAnnotation(const ApiObject& obj, std::string_view key);

// The annotation users add to opt a Deployment into KubeDirect (§3).
inline constexpr const char* kKubeDirectAnnotation = "kubedirect.io/managed";
bool IsKubeDirectManaged(const ApiObject& obj);
void SetKubeDirectManaged(ApiObject& obj, bool managed);

// Owner reference (single owner suffices for the narrow waist).
void SetOwner(ApiObject& obj, const std::string& kind,
              const std::string& name);
const std::string& GetOwnerName(const ApiObject& obj);
const std::string& GetOwnerKind(const ApiObject& obj);

// --- typed field accessors ----------------------------------------------

std::int64_t GetReplicas(const ApiObject& obj);        // Deployment/ReplicaSet
void SetReplicas(ApiObject& obj, std::int64_t n);
std::int64_t GetReadyReplicas(const ApiObject& obj);   // status
void SetReadyReplicas(ApiObject& obj, std::int64_t n);

const std::string& GetNodeName(const ApiObject& pod);  // Pod.spec.nodeName
void SetNodeName(ApiObject& pod, const std::string& node);

PodPhase GetPodPhase(const ApiObject& pod);            // Pod.status.phase
void SetPodPhase(ApiObject& pod, PodPhase phase);
bool IsTerminating(const ApiObject& pod);
// Marks the pod Terminating. Transition is irreversible: attempting to
// set a Terminating pod back to Pending/Running fails a KD_CHECK in
// SetPodPhase.
void MarkTerminating(ApiObject& pod);

const std::string& GetPodIp(const ApiObject& pod);
void SetPodIp(ApiObject& pod, const std::string& ip);

// Resource requests, in milli-CPU units (Pods and Node capacity).
std::int64_t GetCpuMilli(const ApiObject& obj);
void SetCpuMilli(ApiObject& obj, std::int64_t milli);
std::int64_t GetMemoryMb(const ApiObject& obj);
void SetMemoryMb(ApiObject& obj, std::int64_t mb);

// Node schedulability: the Scheduler marks a Node invalid through the
// API server to drain unreachable Kubelets (§4.3 "Cancellation").
bool IsNodeInvalid(const ApiObject& node);
void SetNodeInvalid(ApiObject& node, bool invalid);

// Heterogeneous node pools (e.g. "ondemand" vs "spot"): an optional
// spec field so unpooled clusters serialize exactly as before. An
// absent pool reads as "" — callers treat that as the default pool.
void SetNodePool(ApiObject& node, const std::string& pool);

// Spot-reclamation notice (scenario engine): absolute simulated time,
// in milliseconds, at which the provider reclaims the node. 0 = no
// notice pending. The Scheduler honours a pending notice by excluding
// the node from placement and draining its pods within the grace
// window; clearing the field re-admits the node.
std::int64_t GetNodeReclaimAtMs(const ApiObject& node);
void SetNodeReclaimAtMs(ApiObject& node, std::int64_t at_ms);

// Deployment revision -> ReplicaSet selection (versioning/rollouts).
std::int64_t GetRevision(const ApiObject& obj);
void SetRevision(ApiObject& obj, std::int64_t rev);

// --- object factories ------------------------------------------------

// A realistic, padded pod template spec: containers with env vars,
// probes, volume mounts, resource requests. Serializes to roughly the
// 10-17 KB the paper reports for production API objects [43].
Value RealisticPodTemplateSpec(const std::string& function_name,
                               std::int64_t cpu_milli = 250,
                               std::int64_t memory_mb = 256);

// A compact template for tests that don't care about wire size.
Value MinimalPodTemplateSpec(const std::string& function_name);

ApiObject MakeDeployment(const std::string& name, std::int64_t replicas,
                         Value pod_template_spec);
ApiObject MakeReplicaSet(const std::string& name,
                         const std::string& deployment_name,
                         std::int64_t revision, std::int64_t replicas,
                         Value pod_template_spec);
// Creates a Pod by instantiating the ReplicaSet's template — step ③ of
// the critical path.
ApiObject MakePodFromTemplate(const std::string& pod_name,
                              const ApiObject& replicaset);
ApiObject MakeNode(const std::string& name, std::int64_t cpu_milli,
                   std::int64_t memory_mb);
ApiObject MakeEndpoints(const std::string& service_name,
                        const std::vector<std::string>& addresses);
void SetEndpointsAddresses(ApiObject& endpoints,
                           const std::vector<std::string>& addresses);
std::vector<std::string> GetEndpointsAddresses(const ApiObject& endpoints);
// The strings of an address array; a non-string entry reads as "" and
// a non-array as no addresses.
std::vector<std::string> AddressStrings(const Value& addresses);
// A Service selecting pods labelled app=<name> (one Service per FaaS
// function; the name doubles as the selector).
ApiObject MakeService(const std::string& name);

}  // namespace kd::model
