#include "kubedirect/message.h"

#include "common/strings.h"

namespace kd::kubedirect {

namespace {

// Short type tags keep the wire format terse; the whole point of the
// format is byte economy.
const char* TypeTag(WireMessage::Type type) {
  switch (type) {
    case WireMessage::Type::kUpsert: return "u";
    case WireMessage::Type::kRemove: return "r";
    case WireMessage::Type::kTombstone: return "t";
    case WireMessage::Type::kSoftInvalidate: return "i";
    case WireMessage::Type::kAck: return "a";
    case WireMessage::Type::kStateVersions: return "V";
    case WireMessage::Type::kStateRequest: return "R";
    case WireMessage::Type::kStateSnapshot: return "S";
  }
  return "?";
}

StatusOr<WireMessage::Type> ParseTypeTag(const std::string& tag) {
  if (tag == "u") return WireMessage::Type::kUpsert;
  if (tag == "r") return WireMessage::Type::kRemove;
  if (tag == "t") return WireMessage::Type::kTombstone;
  if (tag == "i") return WireMessage::Type::kSoftInvalidate;
  if (tag == "a") return WireMessage::Type::kAck;
  if (tag == "V") return WireMessage::Type::kStateVersions;
  if (tag == "R") return WireMessage::Type::kStateRequest;
  if (tag == "S") return WireMessage::Type::kStateSnapshot;
  return InvalidArgumentError("unknown wire message tag: " + tag);
}

model::Value EncodeKdMessage(const KdMessage& msg) {
  model::Value out = model::Value::MakeObject();
  out["o"] = msg.obj_key;
  model::Value attrs = model::Value::MakeObject();
  for (const auto& [path, value] : msg.attrs) {
    if (value.is_pointer()) {
      // Pointer encoded as "objKey#attrPath" under "p".
      model::Value p = model::Value::MakeObject();
      p["p"] = value.pointer().obj_key + "#" + value.pointer().attr_path;
      attrs[path] = std::move(p);
    } else {
      model::Value l = model::Value::MakeObject();
      l["v"] = value.literal();
      attrs[path] = std::move(l);
    }
  }
  out["a"] = std::move(attrs);
  return out;
}

StatusOr<KdMessage> DecodeKdMessage(const model::Value& v) {
  if (!v.is_object() || !v["o"].is_string()) {
    return InvalidArgumentError("malformed KdMessage");
  }
  KdMessage msg;
  msg.obj_key = v["o"].as_string();
  const model::Value& attrs = v["a"];
  if (!attrs.is_object() && !attrs.is_null()) {
    return InvalidArgumentError("malformed KdMessage attrs");
  }
  if (attrs.is_object()) {
    for (const auto& [path, encoded] : attrs.object()) {
      if (encoded.contains("p")) {
        const std::string& ref = encoded["p"].as_string();
        const std::size_t hash_pos = ref.find('#');
        if (hash_pos == std::string::npos) {
          return InvalidArgumentError("malformed pointer: " + ref);
        }
        msg.attrs.emplace(path,
                          KdValue::Pointer(ref.substr(0, hash_pos),
                                           ref.substr(hash_pos + 1)));
      } else if (encoded.contains("v")) {
        msg.attrs.emplace(path, KdValue::Literal(encoded["v"]));
      } else {
        return InvalidArgumentError("attr neither literal nor pointer");
      }
    }
  }
  return msg;
}

// A compact-JSON rendering's byte length and its '"'/'\' count.
struct JsonCost {
  std::size_t size = 0;
  std::size_t escapes = 0;

  JsonCost& operator+=(const JsonCost& other) {
    size += other.size;
    escapes += other.escapes;
    return *this;
  }
};

JsonCost StringCost(const std::string& s) {
  return {model::JsonStringSize(s), model::JsonStringEscapes(s)};
}

JsonCost ValueCost(const model::Value& v) {
  return {v.SerializedSize(), v.SerializedEscapes()};
}

// Brackets or braces plus the commas between `n` members.
JsonCost Container(std::size_t n) { return {2 + (n > 0 ? n - 1 : 0), 0}; }

// `"k":` for a one-letter key.
constexpr JsonCost kTagKey{4, 2};

// Mirrors EncodeKdMessage: {"a":{path:{"p":"key#path"}|{"v":lit}},"o":key}.
JsonCost KdMessageCost(const KdMessage& msg) {
  JsonCost attrs = Container(msg.attrs.size());
  for (const auto& [path, value] : msg.attrs) {
    attrs += StringCost(path);
    attrs.size += 1;  // colon
    attrs += Container(1);
    attrs += kTagKey;
    if (value.is_pointer()) {
      // One string: the two quoted parts lose a pair of quotes and
      // gain the '#'.
      const JsonCost key = StringCost(value.pointer().obj_key);
      const JsonCost attr = StringCost(value.pointer().attr_path);
      attrs.size += key.size + attr.size - 1;
      attrs.escapes += key.escapes + attr.escapes - 2;
    } else {
      attrs += ValueCost(value.literal());
    }
  }
  JsonCost out = Container(2);
  out += kTagKey;
  out += attrs;
  out += kTagKey;
  out += StringCost(msg.obj_key);
  return out;
}

// Mirrors WireMessage::Serialize: {section,"t":"<tag>"} with exactly
// one section besides the tag.
JsonCost WireCost(const WireMessage& msg) {
  JsonCost section;
  switch (msg.type) {
    case WireMessage::Type::kUpsert:
    case WireMessage::Type::kSoftInvalidate:
      section = KdMessageCost(msg.message);
      break;
    case WireMessage::Type::kRemove:
    case WireMessage::Type::kTombstone:
    case WireMessage::Type::kAck:
      section = StringCost(msg.key);
      break;
    case WireMessage::Type::kStateVersions:
      section = Container(msg.versions.size());
      for (const auto& [k, hash] : msg.versions) {
        section += StringCost(k);
        section.size += 1 + model::JsonIntSize(static_cast<std::int64_t>(hash));
      }
      break;
    case WireMessage::Type::kStateRequest:
      section = Container(msg.keys.size());
      for (const auto& k : msg.keys) section += StringCost(k);
      break;
    case WireMessage::Type::kStateSnapshot:
      // Each object travels as its JSON text inside a JSON string:
      // every '"' and '\' in that text gains a backslash, and both
      // bytes of each such pair count as escapes one level up.
      section = Container(msg.objects.size());
      for (const auto& obj : msg.objects) {
        const std::size_t escapes = obj.SerializedEscapes();
        section.size += 2 + obj.SerializedSize() + escapes;
        section.escapes += 2 + 2 * escapes;
      }
      break;
  }
  JsonCost out = Container(2);
  out += kTagKey;
  out += section;
  out += kTagKey;
  out += {3, 2};  // the quoted one-letter type tag
  return out;
}

}  // namespace

const char* WireMessageTypeName(WireMessage::Type type) {
  switch (type) {
    case WireMessage::Type::kUpsert: return "Upsert";
    case WireMessage::Type::kRemove: return "Remove";
    case WireMessage::Type::kTombstone: return "Tombstone";
    case WireMessage::Type::kSoftInvalidate: return "SoftInvalidate";
    case WireMessage::Type::kAck: return "Ack";
    case WireMessage::Type::kStateVersions: return "StateVersions";
    case WireMessage::Type::kStateRequest: return "StateRequest";
    case WireMessage::Type::kStateSnapshot: return "StateSnapshot";
  }
  return "?";
}

std::string WireMessage::Serialize() const {
  model::Value out = model::Value::MakeObject();
  out["t"] = TypeTag(type);
  switch (type) {
    case Type::kUpsert:
    case Type::kSoftInvalidate:
      out["m"] = EncodeKdMessage(message);
      break;
    case Type::kRemove:
    case Type::kTombstone:
    case Type::kAck:
      out["k"] = key;
      break;
    case Type::kStateVersions: {
      model::Value v = model::Value::MakeObject();
      for (const auto& [k, hash] : versions) {
        v[k] = static_cast<std::int64_t>(hash);
      }
      out["v"] = std::move(v);
      break;
    }
    case Type::kStateRequest: {
      model::Value ks = model::Value::MakeArray();
      for (const auto& k : keys) ks.push_back(k);
      out["K"] = std::move(ks);
      break;
    }
    case Type::kStateSnapshot: {
      model::Value os = model::Value::MakeArray();
      for (const auto& obj : objects) os.push_back(obj.Serialize());
      out["O"] = std::move(os);
      break;
    }
  }
  return out.Serialize();
}

std::size_t WireMessage::SerializedSize() const { return WireCost(*this).size; }

StatusOr<WireMessage> WireMessage::Parse(const std::string& text) {
  StatusOr<model::Value> parsed = model::Value::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const model::Value& v = *parsed;
  StatusOr<Type> type = ParseTypeTag(v["t"].as_string());
  if (!type.ok()) return type.status();
  WireMessage out;
  out.type = *type;
  switch (out.type) {
    case Type::kUpsert:
    case Type::kSoftInvalidate: {
      StatusOr<KdMessage> msg = DecodeKdMessage(v["m"]);
      if (!msg.ok()) return msg.status();
      out.message = std::move(*msg);
      break;
    }
    case Type::kRemove:
    case Type::kTombstone:
    case Type::kAck:
      out.key = v["k"].as_string();
      break;
    case Type::kStateVersions:
      for (const auto& [k, hash] : v["v"].object()) {
        out.versions[k] = static_cast<std::uint64_t>(hash.as_int());
      }
      break;
    case Type::kStateRequest:
      for (const auto& k : v["K"].array()) out.keys.push_back(k.as_string());
      break;
    case Type::kStateSnapshot:
      for (const auto& encoded : v["O"].array()) {
        StatusOr<model::ApiObject> obj =
            model::ApiObject::Parse(encoded.as_string());
        if (!obj.ok()) return obj.status();
        out.objects.push_back(std::move(*obj));
      }
      break;
  }
  return out;
}

std::string SerializeBatch(const std::vector<WireMessage>& batch) {
  model::Value arr = model::Value::MakeArray();
  for (const auto& msg : batch) arr.push_back(msg.Serialize());
  return arr.Serialize();
}

StatusOr<std::vector<WireMessage>> ParseBatch(const std::string& text) {
  StatusOr<model::Value> parsed = model::Value::Parse(text);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_array()) return InvalidArgumentError("batch not an array");
  std::vector<WireMessage> out;
  out.reserve(parsed->size());
  for (const auto& item : parsed->array()) {
    StatusOr<WireMessage> msg = WireMessage::Parse(item.as_string());
    if (!msg.ok()) return msg.status();
    out.push_back(std::move(*msg));
  }
  return out;
}

std::size_t SerializedBatchSize(const std::vector<WireMessage>& batch) {
  std::size_t n = Container(batch.size()).size;
  for (const auto& msg : batch) {
    const JsonCost cost = WireCost(msg);
    n += 2 + cost.size + cost.escapes;
  }
  return n;
}

KdMessage PodCreateMessage(const model::ApiObject& pod,
                           const std::string& replicaset_key) {
  KdMessage msg;
  msg.obj_key = pod.Key();
  // The static bulk — the container spec — travels as a pointer into
  // the ReplicaSet the receiver already caches (§3.2's example).
  msg.attrs.emplace("spec",
                    KdValue::Pointer(replicaset_key, "spec.template.spec"));
  // Dynamic attributes the creating controller decided.
  msg.attrs.emplace("metadata", KdValue::Literal(pod.metadata));
  msg.attrs.emplace("status.phase",
                    KdValue::Literal(pod.status["phase"]));
  return msg;
}

KdMessage DiffMessage(const model::ApiObject& before,
                      const model::ApiObject& after) {
  KdMessage msg;
  msg.obj_key = after.Key();
  for (const char* section : {"metadata", "spec", "status"}) {
    const model::Value& b = section == std::string("metadata") ? before.metadata
                            : section == std::string("spec")   ? before.spec
                                                                : before.status;
    const model::Value& a = section == std::string("metadata") ? after.metadata
                            : section == std::string("spec")   ? after.spec
                                                                : after.status;
    for (auto& [path, value] : model::Value::Diff(b, a)) {
      msg.attrs.emplace(std::string(section) + "." + path,
                        KdValue::Literal(std::move(value)));
    }
  }
  return msg;
}

KdMessage FullObjectMessage(const model::ApiObject& obj) {
  KdMessage msg;
  msg.obj_key = obj.Key();
  msg.attrs.emplace("metadata", KdValue::Literal(obj.metadata));
  msg.attrs.emplace("spec", KdValue::Literal(obj.spec));
  msg.attrs.emplace("status", KdValue::Literal(obj.status));
  return msg;
}

bool IsSelfContained(const KdMessage& msg) {
  return msg.attrs.count("metadata") != 0 && msg.attrs.count("spec") != 0 &&
         msg.attrs.count("status") != 0;
}

}  // namespace kd::kubedirect
