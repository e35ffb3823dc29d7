#include "model/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace kd::model {

namespace {
const Value kNullValue;
const Value::Array kEmptyArray;
const Value::Object kEmptyObject;

// The dotted-path segment that starts at `pos`. Advances `pos` past
// the segment's dot, or to npos after the last segment.
std::string_view NextSegment(std::string_view path, std::size_t& pos) {
  const std::size_t dot = path.find('.', pos);
  const std::string_view part = path.substr(pos, dot - pos);  // clamped
  pos = dot == std::string_view::npos ? dot : dot + 1;
  return part;
}
}  // namespace

Value::Node& Value::Detach() {
  if (node_->refs > 1) {
    Node* clone = new Node(*node_);
    --node_->refs;
    node_ = clone;
  }
  return *node_;
}

Value::Node& Value::MutableNode() {
  Node& node = Detach();
  node.cached_size = 0;
  return node;
}

Value::Node& Value::MutableNodeAs(Type t) {
  if (type_ == t) return MutableNode();
  switch (t) {
    case Type::kString: *this = Value(std::string()); break;
    case Type::kArray: *this = Value(Array{}); break;
    default: *this = Value(Object{}); break;
  }
  return *node_;
}

std::size_t Value::size() const {
  if (is_array()) return arr().size();
  if (is_object()) return obj().size();
  return 0;
}

const Value& Value::at(std::size_t i) const {
  if (!is_array() || i >= arr().size()) return kNullValue;
  return arr()[i];
}

Value& Value::at(std::size_t i) {
  // Defensive like the const overload: out-of-range (or non-array)
  // access yields a throwaway null whose writes are discarded, instead
  // of indexing past the end.
  if (!is_array() || i >= arr().size()) {
    static Value discard;
    discard = Value();
    return discard;
  }
  return MutableNode().array()[i];
}

void Value::push_back(Value v) { InsertAt(size(), std::move(v)); }

void Value::InsertAt(std::size_t i, Value v) {
  Node& node = is_array() ? Detach() : MutableNodeAs(Type::kArray);
  Array& array = node.array();
  if (i > array.size()) i = array.size();
  if (node.cached_size != 0) {
    node.cached_size += v.SerializedSize() + (array.empty() ? 0 : 1);  // comma
    node.cached_escapes += v.SerializedEscapes();
  }
  array.insert(array.begin() + static_cast<std::ptrdiff_t>(i), std::move(v));
}

void Value::EraseAt(std::size_t i) {
  if (!is_array() || i >= arr().size()) return;
  Node& node = Detach();
  Array& array = node.array();
  if (node.cached_size != 0) {
    const Value& gone = array[i];
    node.cached_size -= gone.SerializedSize() + (array.size() > 1 ? 1 : 0);
    node.cached_escapes -= gone.SerializedEscapes();
  }
  array.erase(array.begin() + static_cast<std::ptrdiff_t>(i));
}

const Value::Array& Value::array() const {
  return is_array() ? arr() : kEmptyArray;
}

Value::Array& Value::array() {
  return MutableNodeAs(Type::kArray).array();
}

const Value& Value::operator[](std::string_view key) const {
  if (!is_object()) return kNullValue;
  const auto it = obj().find(key);
  return it == obj().end() ? kNullValue : it->second;
}

Value& Value::operator[](std::string_view key) {
  return MutableNodeAs(Type::kObject).object()[key];
}

bool Value::contains(std::string_view key) const {
  return is_object() && obj().count(key) > 0;
}

void Value::erase(std::string_view key) {
  if (!is_object()) return;
  MutableNode().object().erase(key);
}

const Value::Object& Value::object() const {
  return is_object() ? obj() : kEmptyObject;
}

Value::Object& Value::object() {
  return MutableNodeAs(Type::kObject).object();
}

const Value* Value::FindPath(std::string_view path) const {
  const Value* cur = this;
  std::size_t pos = 0;
  while (pos != std::string_view::npos) {
    if (!cur->is_object()) return nullptr;
    const Object& fields = cur->obj();
    const auto it = fields.find(NextSegment(path, pos));
    if (it == fields.end()) return nullptr;
    cur = &it->second;
  }
  return cur;
}

void Value::SetPath(std::string_view path, Value v) {
  Value* cur = this;
  std::size_t pos = 0;
  for (;;) {
    const std::string_view part = NextSegment(path, pos);
    Value& child = cur->MutableNodeAs(Type::kObject).object()[part];
    if (pos == std::string_view::npos) {
      child = std::move(v);
      return;
    }
    cur = &child;
  }
}

bool Value::ErasePath(std::string_view path) {
  // Const pre-check so a miss neither detaches nor dirties any caches.
  if (FindPath(path) == nullptr) return false;
  // Walk to the parent through the mutable path (detaching + cache
  // invalidation along the way), then erase the leaf.
  Value* cur = this;
  std::size_t pos = 0;
  for (;;) {
    const std::string_view part = NextSegment(path, pos);
    Object& fields = cur->MutableNode().object();
    if (pos == std::string_view::npos) {
      fields.erase(part);
      return true;
    }
    cur = &fields.find(part)->second;
  }
}

namespace {

void EscapeInto(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// What EscapeInto renders for `s`, without rendering it: the byte
// length, and how many of those bytes are '"' or '\' (the two quotes,
// both bytes of an escaped '"' or '\', the backslash of every other
// escape).
struct JsonMeasure {
  std::size_t size;
  std::size_t escapes;
};

JsonMeasure MeasureString(const std::string& s) {
  JsonMeasure m{2, 2};  // quotes
  for (char c : s) {
    switch (c) {
      case '"':
      case '\\':
        m.size += 2;
        m.escapes += 2;
        break;
      case '\n':
      case '\t':
      case '\r':
        m.size += 2;
        m.escapes += 1;
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          m.size += 6;
          m.escapes += 1;
        } else {
          m.size += 1;
        }
    }
  }
  return m;
}

// What "%lld" prints for `v`: its digits, plus one for the sign. The
// magnitude is taken unsigned, so INT64_MIN needs no special case.
std::size_t IntJsonSize(std::int64_t v) {
  std::uint64_t magnitude = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                                  : static_cast<std::uint64_t>(v);
  std::size_t n = v < 0 ? 2 : 1;
  for (; magnitude >= 10; magnitude /= 10) ++n;
  return n;
}

std::size_t DoubleJsonSize(double d) {
  char buf[32];
  return static_cast<std::size_t>(
      std::snprintf(buf, sizeof(buf), "%.17g", d));
}

}  // namespace

void Value::SerializeTo(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += scalar_.b ? "true" : "false";
      break;
    case Type::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(scalar_.i));
      out += buf;
      break;
    }
    case Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", scalar_.d);
      out += buf;
      break;
    }
    case Type::kString:
      EscapeInto(str(), out);
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& v : arr()) {
        if (!first) out += ',';
        first = false;
        v.SerializeTo(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj()) {
        if (!first) out += ',';
        first = false;
        EscapeInto(k, out);
        out += ':';
        v.SerializeTo(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Value::Serialize() const {
  std::string out;
  out.reserve(64);
  SerializeTo(out);
  return out;
}

std::size_t Value::SerializedSize() const {
  switch (type_) {
    case Type::kNull:
      return 4;
    case Type::kBool:
      return scalar_.b ? 4 : 5;
    case Type::kInt:
      return IntJsonSize(scalar_.i);
    case Type::kDouble:
      return DoubleJsonSize(scalar_.d);
    case Type::kString:
    case Type::kArray:
    case Type::kObject:
      if (node_->cached_size == 0) Measure();
      return node_->cached_size;
  }
  return 0;
}

std::size_t Value::SerializedEscapes() const {
  if (node_ == nullptr) return 0;  // scalars render with neither byte
  if (node_->cached_size == 0) Measure();
  return node_->cached_escapes;
}

void Value::Measure() const {
  Node& node = *node_;
  switch (type_) {
    case Type::kString: {
      const JsonMeasure m = MeasureString(str());
      node.cached_size = m.size;
      node.cached_escapes = m.escapes;
      return;
    }
    case Type::kArray: {
      std::size_t n = 2;  // brackets
      if (!arr().empty()) n += arr().size() - 1;  // commas
      std::size_t escapes = 0;
      for (const Value& v : arr()) {
        n += v.SerializedSize();
        escapes += v.SerializedEscapes();
      }
      node.cached_size = n;
      node.cached_escapes = escapes;
      return;
    }
    case Type::kObject: {
      std::size_t n = 2;  // braces
      if (!obj().empty()) n += obj().size() - 1;  // commas
      std::size_t escapes = 0;
      for (const auto& [k, v] : obj()) {
        const JsonMeasure key = MeasureString(k);
        n += key.size + 1 + v.SerializedSize();  // key : value
        escapes += key.escapes + v.SerializedEscapes();
      }
      node.cached_size = n;
      node.cached_escapes = escapes;
      return;
    }
    default:
      return;
  }
}

namespace {

// Recursive-descent JSON parser over the compact subset Serialize emits
// (plus whitespace tolerance, so hand-written test fixtures work).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<Value> Parse() {
    StatusOr<Value> v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) {
    return InvalidArgumentError(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  StatusOr<Value> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      StatusOr<std::string> s = ParseString();
      if (!s.ok()) return s.status();
      return Value(std::move(s).value());
    }
    if (ConsumeLiteral("null")) return Value();
    if (ConsumeLiteral("true")) return Value(true);
    if (ConsumeLiteral("false")) return Value(false);
    return ParseNumber();
  }

  StatusOr<Value> ParseObject() {
    if (!Consume('{')) return Error("expected '{'");
    Value::Object obj;
    SkipWs();
    if (Consume('}')) return Value(std::move(obj));
    for (;;) {
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':'");
      StatusOr<Value> val = ParseValue();
      if (!val.ok()) return val;
      obj.emplace(std::move(key).value(), std::move(val).value());
      if (Consume(',')) continue;
      if (Consume('}')) return Value(std::move(obj));
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<Value> ParseArray() {
    if (!Consume('[')) return Error("expected '['");
    Value::Array arr;
    SkipWs();
    if (Consume(']')) return Value(std::move(arr));
    for (;;) {
      StatusOr<Value> val = ParseValue();
      if (!val.ok()) return val;
      arr.push_back(std::move(val).value());
      if (Consume(',')) continue;
      if (Consume(']')) return Value(std::move(arr));
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<std::string> ParseString() {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status(StatusCode::kInvalidArgument, "expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case '/': out += '/'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status(StatusCode::kInvalidArgument, "bad \\u escape");
            }
            const unsigned code = static_cast<unsigned>(
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            out += static_cast<char>(code & 0x7F);
            break;
          }
          default:
            return Status(StatusCode::kInvalidArgument, "bad escape");
        }
      } else {
        out += c;
      }
    }
    return Status(StatusCode::kInvalidArgument, "unterminated string");
  }

  StatusOr<Value> ParseNumber() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected number");
    const std::string token = text_.substr(start, pos_ - start);
    if (is_double) {
      return Value(std::strtod(token.c_str(), nullptr));
    }
    return Value(static_cast<std::int64_t>(
        std::strtoll(token.c_str(), nullptr, 10)));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<Value> Value::Parse(const std::string& text) {
  return Parser(text).Parse();
}

std::size_t JsonStringSize(const std::string& s) {
  return MeasureString(s).size;
}
std::size_t JsonStringEscapes(const std::string& s) {
  return MeasureString(s).escapes;
}
std::size_t JsonIntSize(std::int64_t v) { return IntJsonSize(v); }

std::uint64_t Value::Hash() const {
  const std::string s = Serialize();
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

bool Value::operator==(const Value& other) const {
  // Shared payload node => structurally equal, no walk needed. (Scalars
  // have no node, so this never misfires.)
  if (SharesPayloadWith(other)) return true;
  if (type_ != other.type_) {
    // Int/double compare numerically so 5 == 5.0.
    if (is_number() && other.is_number()) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return scalar_.b == other.scalar_.b;
    case Type::kInt: return scalar_.i == other.scalar_.i;
    case Type::kDouble: return scalar_.d == other.scalar_.d;
    case Type::kString: return str() == other.str();
    case Type::kArray: return arr() == other.arr();
    case Type::kObject: return obj() == other.obj();
  }
  return false;
}

void Value::DiffInto(const std::string& prefix, const Value& before,
                     const Value& after,
                     std::vector<std::pair<std::string, Value>>& out) {
  if (before == after) return;
  if (!before.is_object() || !after.is_object()) {
    out.emplace_back(prefix, after);
    return;
  }
  const auto path = [&prefix](const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  };
  // Both field arrays are sorted by key, so each pass below is a merge
  // walk. Keys removed in `after` surface as explicit nulls.
  const Object& b = before.obj();
  const Object& a = after.obj();
  auto ai = a.begin();
  for (const auto& [k, v] : b) {
    while (ai != a.end() && ai->first < k) ++ai;
    if (ai == a.end() || ai->first != k) out.emplace_back(path(k), Value());
  }
  auto bi = b.begin();
  for (const auto& [k, v] : a) {
    while (bi != b.end() && bi->first < k) ++bi;
    if (bi == b.end() || bi->first != k) {
      out.emplace_back(path(k), v);
    } else {
      DiffInto(path(k), bi->second, v, out);
    }
  }
}

std::vector<std::pair<std::string, Value>> Value::Diff(const Value& before,
                                                       const Value& after) {
  std::vector<std::pair<std::string, Value>> out;
  DiffInto("", before, after, out);
  return out;
}

}  // namespace kd::model
