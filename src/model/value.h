// JSON-like dynamic value, the representation of Kubernetes API object
// bodies (spec/status/metadata).
//
// Three capabilities drive the design, all needed by the paper:
//   - dotted-path access ("spec.template.spec.containers"), because
//     KubeDirect messages reference attributes by path (§3.2);
//   - byte-accurate serialization, because the whole point of the
//     minimal message format is wire size (64 B vs 17 KB);
//   - structural diff, because soft invalidation and the handshake's
//     change-set exchange ship only what changed (§4.2).
//
// Value is a regular value type: copies are deep *semantically*,
// equality is structural. The representation is compact and
// copy-on-write. A Value is 24 bytes: its type, one union for the
// bool/int/double scalars, and a pointer to a payload node. A string,
// array or object payload lives in one node with a plain reference
// count (the simulator is single-threaded, kdlint R9), and is only
// cloned when a writer mutates a shared value (the clone is shallow —
// children keep sharing until written themselves). This is what makes
// the simulator's "copy per watcher / copy per cache" convention
// affordable for 17 KB pod objects: the copies are count bumps until
// somebody writes. An object's fields are one array of (key, Value)
// pairs sorted by key (FieldArray), not a tree with a node per field.
//
// Every payload node also memoizes its compact-JSON byte length
// (SerializedSize) and the number of '"' and '\' bytes in that
// rendering (SerializedEscapes), because byte accounting runs on every
// simulated network message. All mutation routes through
// MutableNode(), which both detaches and invalidates the caches; only
// the array InsertAt/EraseAt (and push_back) carry them forward,
// adjusted by the element's own.
//
// References into a tree follow two rules:
//   - A `Value&` (or pointer, or iterator) into an object or array is
//     invalidated when that same object or array gains or loses a
//     member: the members behind it move. `v["a"] = v["b"]` is the
//     trap — C++17 evaluates the right side first, and the left side's
//     insert then moves it. Copy the right side into a local first.
//   - The cache of an *ancestor* is invalidated when the path to the
//     child is traversed through the mutable accessors
//     (`v["a"]["b"] = x`), so do not hold a `Value&` into a tree across
//     an ancestor's SerializedSize() call and then write through it —
//     re-index instead.
// The codebase mutates through full-expression chains that index each
// object once (`pod.status["phase"] = ...`), which are always safe.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "model/field_array.h"

namespace kd::model {

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Value>;
  // Fields sorted by key, so serialization is deterministic and equal
  // objects serialize identically.
  using Object = FieldArray<Value>;

  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : type_(Type::kBool) { scalar_.b = b; }
  Value(int i) : type_(Type::kInt) { scalar_.i = i; }
  Value(std::int64_t i) : type_(Type::kInt) { scalar_.i = i; }
  Value(double d) : type_(Type::kDouble) { scalar_.d = d; }
  Value(const char* s) : Value(std::string(s)) {}
  Value(std::string s);
  Value(Array a);
  Value(Object o);

  // Copies share the payload node (O(1)); the first mutation through
  // either copy detaches it. A moved-from Value is null.
  Value(const Value& other) noexcept;
  Value(Value&& other) noexcept;
  Value& operator=(const Value& other) noexcept;
  Value& operator=(Value&& other) noexcept;
  ~Value();

  static Value MakeObject() { return Value(Object{}); }
  static Value MakeArray() { return Value(Array{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // True when this value shares its payload node with another Value —
  // observability for the CoW tests; scalars are never shared.
  bool SharesPayloadWith(const Value& other) const {
    return node_ != nullptr && node_ == other.node_;
  }

  // Mismatched access returns a zero value (defensive: API objects
  // come off the wire).
  bool as_bool() const { return is_bool() ? scalar_.b : false; }
  std::int64_t as_int() const {
    if (is_int()) return scalar_.i;
    if (is_double()) return static_cast<std::int64_t>(scalar_.d);
    return 0;
  }
  double as_double() const {
    if (is_double()) return scalar_.d;
    if (is_int()) return static_cast<double>(scalar_.i);
    return 0.0;
  }
  const std::string& as_string() const;

  // --- array access ---------------------------------------------------
  std::size_t size() const;
  const Value& at(std::size_t i) const;
  Value& at(std::size_t i);
  void push_back(Value v);
  // Inserts `v` before position `i` (clamped to size()), converting a
  // non-array into an empty array first. Removes element `i` when in
  // range. Both keep this array's memoized size and escape count,
  // adjusted by the element's, instead of dropping them.
  void InsertAt(std::size_t i, Value v);
  void EraseAt(std::size_t i);
  const Array& array() const;
  // Mutable view: detaches. Do not hold across an ancestor's
  // SerializedSize() (see header comment).
  Array& array();

  // --- object access ---------------------------------------------------
  // Field lookup; returns null Value reference for missing keys.
  const Value& operator[](std::string_view key) const;
  // Inserting lookup; converts a non-object value into an object first.
  Value& operator[](std::string_view key);
  bool contains(std::string_view key) const;
  void erase(std::string_view key);
  const Object& object() const;
  // Mutable view: detaches (same caveats as array(); keys are not to
  // be edited in place).
  Object& object();

  // --- dotted-path access ----------------------------------------------
  // Path syntax: "spec.template.spec.nodeName". Array elements are not
  // addressable by path (Kubernetes strategic-merge semantics treat the
  // containers list as a unit, which is all the narrow waist needs).
  const Value* FindPath(std::string_view path) const;
  // Creates intermediate objects as needed.
  void SetPath(std::string_view path, Value v);
  // Removes the leaf if present; returns true if removed.
  bool ErasePath(std::string_view path);

  // --- serialization -----------------------------------------------------
  // Compact JSON. Keys are emitted sorted, so equal values serialize
  // identically (used for version hashing in the handshake protocol).
  std::string Serialize() const;
  // Byte length of Serialize(), without materializing the string.
  // Memoized per payload node; every mutation invalidates the caches
  // along the mutated path.
  std::size_t SerializedSize() const;
  // Number of '"' and '\' bytes in Serialize() — what encoding that
  // text once more as a JSON string adds (Serialize() emits no raw
  // control bytes). Memoized beside SerializedSize().
  std::size_t SerializedEscapes() const;
  static StatusOr<Value> Parse(const std::string& text);

  // FNV-1a over the serialized form; the "any unique number" version
  // tag used by the handshake's two-round optimization (§4.2).
  std::uint64_t Hash() const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // --- diff ---------------------------------------------------------------
  // Paths at which `after` differs from `before` (added/changed leaves,
  // plus removed paths reported with a null value). Arrays and scalars
  // are compared as units.
  static std::vector<std::pair<std::string, Value>> Diff(const Value& before,
                                                         const Value& after);

 private:
  // Payload node of a string, array or object; defined below.
  struct Node;

  // The payload of a string/array/object Value (type-checked by the
  // caller).
  const std::string& str() const;
  const Array& arr() const;
  const Object& obj() const;

  // Clones the payload node if shared, keeping its caches.
  Node& Detach();
  // Detach-on-write: Detach() and invalidate the caches. Callers of
  // mutable accessors reach their node through the mutable path, so
  // ancestors invalidate transitively.
  Node& MutableNode();
  // Converts to `t` (one of string/array/object, resetting the
  // payload) unless already of type `t`; then detaches. Backbone of the
  // inserting accessors.
  Node& MutableNodeAs(Type t);

  // Fills cached_size and cached_escapes (string/array/object only).
  void Measure() const;
  void SerializeTo(std::string& out) const;
  static void DiffInto(const std::string& prefix, const Value& before,
                       const Value& after,
                       std::vector<std::pair<std::string, Value>>& out);

  union Scalar {
    std::int64_t i;
    double d;
    bool b;
  };

  Type type_ = Type::kNull;
  Scalar scalar_{0};      // bool/int/double
  Node* node_ = nullptr;  // set iff string/array/object
};

// One allocation per string/array/object payload. `refs` counts the
// Values that point here. cached_size memoizes the payload's
// compact-JSON length and cached_escapes its '"'/'\' count;
// cached_size 0 means neither is computed (no JSON rendering is ever
// empty, so 0 is never a valid length).
struct Value::Node {
  explicit Node(std::string s)
      : payload(std::in_place_type<std::string>, std::move(s)) {}
  explicit Node(Array a) : payload(std::in_place_type<Array>, std::move(a)) {}
  explicit Node(Object o)
      : payload(std::in_place_type<Object>, std::move(o)) {}
  // A clone starts unshared and keeps the caches.
  Node(const Node& other)
      : payload(other.payload),
        cached_size(other.cached_size),
        cached_escapes(other.cached_escapes) {}
  Node& operator=(const Node&) = delete;

  // The payload, by the owning Value's type.
  std::string& string() { return *std::get_if<std::string>(&payload); }
  Array& array() { return *std::get_if<Array>(&payload); }
  Object& object() { return *std::get_if<Object>(&payload); }

  std::variant<std::string, Array, Object> payload;
  std::size_t cached_size = 0;
  std::size_t cached_escapes = 0;
  std::size_t refs = 1;
};

inline Value::Value(std::string s)
    : type_(Type::kString), node_(new Node(std::move(s))) {}
inline Value::Value(Array a)
    : type_(Type::kArray), node_(new Node(std::move(a))) {}
inline Value::Value(Object o)
    : type_(Type::kObject), node_(new Node(std::move(o))) {}

inline Value::Value(const Value& other) noexcept
    : type_(other.type_), scalar_(other.scalar_), node_(other.node_) {
  if (node_ != nullptr) ++node_->refs;
}

inline Value::Value(Value&& other) noexcept
    : type_(other.type_), scalar_(other.scalar_), node_(other.node_) {
  other.type_ = Type::kNull;
  other.node_ = nullptr;
}

// Assignment takes hold of `other`'s payload before releasing its own,
// so assigning a value its own descendant (`v = v["a"]`) is safe.
inline Value& Value::operator=(const Value& other) noexcept {
  return *this = Value(other);
}

inline Value& Value::operator=(Value&& other) noexcept {
  Value moved(std::move(other));
  std::swap(type_, moved.type_);
  std::swap(scalar_, moved.scalar_);
  std::swap(node_, moved.node_);
  return *this;
}

inline Value::~Value() {
  if (node_ != nullptr && --node_->refs == 0) delete node_;
}

inline const std::string& Value::str() const { return node_->string(); }
inline const Value::Array& Value::arr() const { return node_->array(); }
inline const Value::Object& Value::obj() const { return node_->object(); }

inline const std::string& Value::as_string() const {
  static const std::string kEmpty;
  return is_string() ? str() : kEmpty;
}

// Byte lengths of the compact-JSON renderings of a string (quoted and
// escaped) and an integer, and the '"'/'\' count of the string's — the
// primitives composite objects use to sum their wire size without
// serializing (see ApiObject::SerializedSize).
std::size_t JsonStringSize(const std::string& s);
std::size_t JsonStringEscapes(const std::string& s);
std::size_t JsonIntSize(std::int64_t v);

}  // namespace kd::model
