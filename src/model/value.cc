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
}  // namespace

Value::Data& Value::Detach() {
  if (data_.use_count() > 1) data_ = std::make_shared<Data>(*data_);
  return *data_;
}

Value::Data& Value::MutableData() {
  Data& data = Detach();
  data.cached_size = 0;
  return data;
}

Value::Data& Value::MutableDataAs(Type t) {
  if (type_ != t) {
    type_ = t;
    bool_ = false;
    int_ = 0;
    double_ = 0.0;
    switch (t) {
      case Type::kString: data_ = std::make_shared<Data>(std::string()); break;
      case Type::kArray: data_ = std::make_shared<Data>(Array{}); break;
      case Type::kObject: data_ = std::make_shared<Data>(Object{}); break;
      default: data_.reset(); break;
    }
    return *data_;
  }
  return MutableData();
}

std::size_t Value::size() const {
  if (is_array()) return data_->array.size();
  if (is_object()) return data_->object.size();
  return 0;
}

const Value& Value::at(std::size_t i) const {
  if (!is_array() || i >= data_->array.size()) return kNullValue;
  return data_->array[i];
}

Value& Value::at(std::size_t i) {
  // Defensive like the const overload: out-of-range (or non-array)
  // access yields a throwaway null whose writes are discarded, instead
  // of indexing past the end.
  if (!is_array() || i >= data_->array.size()) {
    static Value discard;
    discard = Value();
    return discard;
  }
  return MutableData().array[i];
}

void Value::push_back(Value v) { InsertAt(size(), std::move(v)); }

void Value::InsertAt(std::size_t i, Value v) {
  Data& data = is_array() ? Detach() : MutableDataAs(Type::kArray);
  Array& arr = data.array;
  if (i > arr.size()) i = arr.size();
  if (data.cached_size != 0) {
    data.cached_size += v.SerializedSize() + (arr.empty() ? 0 : 1);  // comma
    data.cached_escapes += v.SerializedEscapes();
  }
  arr.insert(arr.begin() + static_cast<std::ptrdiff_t>(i), std::move(v));
}

void Value::EraseAt(std::size_t i) {
  if (!is_array() || i >= data_->array.size()) return;
  Data& data = Detach();
  Array& arr = data.array;
  if (data.cached_size != 0) {
    const Value& gone = arr[i];
    data.cached_size -= gone.SerializedSize() + (arr.size() > 1 ? 1 : 0);
    data.cached_escapes -= gone.SerializedEscapes();
  }
  arr.erase(arr.begin() + static_cast<std::ptrdiff_t>(i));
}

const Value::Array& Value::array() const {
  return is_array() ? data_->array : kEmptyArray;
}

Value::Array& Value::array() { return MutableDataAs(Type::kArray).array; }

const Value& Value::operator[](const std::string& key) const {
  if (!is_object()) return kNullValue;
  auto it = data_->object.find(key);
  return it == data_->object.end() ? kNullValue : it->second;
}

Value& Value::operator[](const std::string& key) {
  return MutableDataAs(Type::kObject).object[key];
}

bool Value::contains(const std::string& key) const {
  return is_object() && data_->object.count(key) > 0;
}

void Value::erase(const std::string& key) {
  if (!is_object()) return;
  MutableData().object.erase(key);
}

const Value::Object& Value::object() const {
  return is_object() ? data_->object : kEmptyObject;
}

Value::Object& Value::object() { return MutableDataAs(Type::kObject).object; }

const Value* Value::FindPath(const std::string& path) const {
  const Value* cur = this;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t dot = path.find('.', start);
    const std::string part =
        path.substr(start, dot == std::string::npos ? dot : dot - start);
    if (!cur->is_object()) return nullptr;
    auto it = cur->data_->object.find(part);
    if (it == cur->data_->object.end()) return nullptr;
    cur = &it->second;
    if (dot == std::string::npos) return cur;
    start = dot + 1;
  }
  return nullptr;
}

void Value::SetPath(const std::string& path, Value v) {
  Value* cur = this;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = path.find('.', start);
    const std::string part =
        path.substr(start, dot == std::string::npos ? dot : dot - start);
    Data& data = cur->MutableDataAs(Type::kObject);
    if (dot == std::string::npos) {
      data.object[part] = std::move(v);
      return;
    }
    cur = &data.object[part];
    start = dot + 1;
  }
}

bool Value::ErasePath(const std::string& path) {
  // Const pre-check so a miss neither detaches nor dirties any caches.
  if (FindPath(path) == nullptr) return false;
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) {
    MutableData().object.erase(path);
    return true;
  }
  // Walk to the parent through the mutable path (detaching + cache
  // invalidation along the way), then erase the leaf.
  Value* cur = this;
  std::size_t start = 0;
  const std::string parent_path = path.substr(0, dot);
  for (;;) {
    const std::size_t d = parent_path.find('.', start);
    const std::string part =
        parent_path.substr(start, d == std::string::npos ? d : d - start);
    cur = &cur->MutableData().object[part];
    if (d == std::string::npos) break;
    start = d + 1;
  }
  cur->MutableData().object.erase(path.substr(dot + 1));
  return true;
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

std::size_t IntJsonSize(std::int64_t v) {
  char buf[24];
  return static_cast<std::size_t>(
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v)));
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
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int_));
      out += buf;
      break;
    }
    case Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out += buf;
      break;
    }
    case Type::kString:
      EscapeInto(data_->string, out);
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& v : data_->array) {
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
      for (const auto& [k, v] : data_->object) {
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
      return bool_ ? 4 : 5;
    case Type::kInt:
      return IntJsonSize(int_);
    case Type::kDouble:
      return DoubleJsonSize(double_);
    case Type::kString:
    case Type::kArray:
    case Type::kObject:
      if (data_->cached_size == 0) Measure();
      return data_->cached_size;
  }
  return 0;
}

std::size_t Value::SerializedEscapes() const {
  if (data_ == nullptr) return 0;  // scalars render with neither byte
  if (data_->cached_size == 0) Measure();
  return data_->cached_escapes;
}

void Value::Measure() const {
  Data& data = *data_;
  switch (type_) {
    case Type::kString: {
      const JsonMeasure m = MeasureString(data.string);
      data.cached_size = m.size;
      data.cached_escapes = m.escapes;
      return;
    }
    case Type::kArray: {
      std::size_t n = 2;  // brackets
      if (!data.array.empty()) n += data.array.size() - 1;  // commas
      std::size_t escapes = 0;
      for (const Value& v : data.array) {
        n += v.SerializedSize();
        escapes += v.SerializedEscapes();
      }
      data.cached_size = n;
      data.cached_escapes = escapes;
      return;
    }
    case Type::kObject: {
      std::size_t n = 2;  // braces
      if (!data.object.empty()) n += data.object.size() - 1;  // commas
      std::size_t escapes = 0;
      for (const auto& [k, v] : data.object) {
        const JsonMeasure key = MeasureString(k);
        n += key.size + 1 + v.SerializedSize();  // key : value
        escapes += key.escapes + v.SerializedEscapes();
      }
      data.cached_size = n;
      data.cached_escapes = escapes;
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
  // have no node; data_ is null for them, so this never misfires.)
  if (data_ != nullptr && data_ == other.data_ && type_ == other.type_) {
    return true;
  }
  if (type_ != other.type_) {
    // Int/double compare numerically so 5 == 5.0.
    if (is_number() && other.is_number()) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kInt: return int_ == other.int_;
    case Type::kDouble: return double_ == other.double_;
    case Type::kString: return data_->string == other.data_->string;
    case Type::kArray: return data_->array == other.data_->array;
    case Type::kObject: return data_->object == other.data_->object;
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
  // Keys removed in `after` surface as explicit nulls.
  for (const auto& [k, v] : before.data_->object) {
    if (!after.contains(k)) {
      out.emplace_back(prefix.empty() ? k : prefix + "." + k, Value());
    }
  }
  for (const auto& [k, v] : after.data_->object) {
    const std::string path = prefix.empty() ? k : prefix + "." + k;
    if (!before.contains(k)) {
      out.emplace_back(path, v);
    } else {
      DiffInto(path, before.data_->object.at(k), v, out);
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
