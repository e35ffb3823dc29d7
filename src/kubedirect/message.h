// The minimal message format of KubeDirect (§3.2, Fig. 5).
//
// A KdMessage names an object and carries only its *dynamic*
// attributes as (attribute path -> value) pairs. A value is either a
// literal or an external pointer (objID + path) into another object
// that the receiver already caches — e.g. a freshly created Pod ships
// as ~100 bytes: its identity, a pointer to the parent ReplicaSet's
// template for the static bulk, and the one or two fields the sending
// controller actually decided (replicas, nodeName, ...).
//
// The same envelope carries the rest of the narrow-waist protocol:
// removals, tombstone replication (§4.3), handshake rounds (§4.2),
// soft invalidations, and acks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "model/field_array.h"
#include "model/objects.h"

namespace kd::kubedirect {

// External pointer: references `attr_path` inside the object cached
// under `obj_key` ("ReplicaSet/fn-v1").
struct KdPointer {
  std::string obj_key;
  std::string attr_path;

  bool operator==(const KdPointer& other) const {
    return obj_key == other.obj_key && attr_path == other.attr_path;
  }
};

// A dynamic attribute value: literal or external pointer.
struct KdValue {
  std::variant<model::Value, KdPointer> repr;

  static KdValue Literal(model::Value v) { return {std::move(v)}; }
  static KdValue Pointer(std::string obj_key, std::string attr_path) {
    return {KdPointer{std::move(obj_key), std::move(attr_path)}};
  }

  bool is_pointer() const { return std::holds_alternative<KdPointer>(repr); }
  const model::Value& literal() const { return std::get<model::Value>(repr); }
  const KdPointer& pointer() const { return std::get<KdPointer>(repr); }

  bool operator==(const KdValue& other) const { return repr == other.repr; }
};

// The per-object state update of Fig. 5.
struct KdMessage {
  std::string obj_key;  // "Pod/fn-v1-3"
  // attr path -> value, sorted by path like Value's fields; path ""
  // (empty) replaces the whole spec is not allowed — top-level sections
  // are "metadata", "spec", "status".
  model::FieldArray<KdValue> attrs;

  bool operator==(const KdMessage& other) const {
    return obj_key == other.obj_key && attrs == other.attrs;
  }
};

// Everything that travels on a KubeDirect link.
struct WireMessage {
  enum class Type : std::uint8_t {
    kUpsert,         // fwd: object create/update (KdMessage)
    kRemove,         // bwd: object no longer exists downstream
    kTombstone,      // fwd: replicate termination intent (§4.3)
    kSoftInvalidate, // bwd: downstream state change (KdMessage)
    kAck,            // fwd: acknowledge a Remove/invalidation
    kStateVersions,  // handshake round 1: key -> content hash
    kStateRequest,   // handshake round 2: keys the client needs
    kStateSnapshot,  // handshake round 2: full objects (the expensive path)
  };

  Type type = Type::kUpsert;
  KdMessage message;                         // kUpsert / kSoftInvalidate
  std::string key;                           // kRemove / kTombstone / kAck
  std::map<std::string, std::uint64_t> versions;  // kStateVersions
  std::vector<std::string> keys;             // kStateRequest
  std::vector<model::ApiObject> objects;     // kStateSnapshot

  std::string Serialize() const;
  static StatusOr<WireMessage> Parse(const std::string& text);
  // Byte length of Serialize(), summed from the memoized Value sizes
  // without producing the text.
  std::size_t SerializedSize() const;
};

const char* WireMessageTypeName(WireMessage::Type type);

// A batch of wire messages framed as one network send (§3.2
// "KubeDirect can further reduce the message passing overhead by
// batching messages"): a JSON array of the messages' JSON texts, each
// encoded as a JSON string. KdLink hands batches over in-process and
// never runs this codec; it stays as the reference the tests hold
// SerializedBatchSize and the hand-off to.
std::string SerializeBatch(const std::vector<WireMessage>& batch);
StatusOr<std::vector<WireMessage>> ParseBatch(const std::string& text);
// SerializeBatch(batch).size(), computed: the brackets and commas,
// then per message its SerializedSize(), the 2 quotes around it and
// one escape byte per '"' or '\' in its text.
std::size_t SerializedBatchSize(const std::vector<WireMessage>& batch);

// --- message construction helpers -------------------------------------

// Builds the Upsert for a freshly created Pod: pointer to the parent
// ReplicaSet template plus the few dynamic fields (§3.2's example).
KdMessage PodCreateMessage(const model::ApiObject& pod,
                           const std::string& replicaset_key);

// Builds an update message carrying exactly the paths at which `after`
// differs from `before` (used for scheduling decisions, status
// updates, and soft invalidations).
KdMessage DiffMessage(const model::ApiObject& before,
                      const model::ApiObject& after);

// Builds a message that carries the full object as literals — the
// "naive direct message passing" baseline of the Fig. 14 ablation.
KdMessage FullObjectMessage(const model::ApiObject& obj);

// True when the message carries every whole top-level section
// (FullObjectMessage shape) — i.e. it can materialize an object the
// receiver does not already hold. Dotted-path deltas cannot.
bool IsSelfContained(const KdMessage& msg);

}  // namespace kd::kubedirect
