// Unit tests for the JSON-like Value type: construction, path access,
// serialization round trips, hashing, structural diff, the memoized
// size and escape caches under in-place array edits, and seeded object
// edit walks checked against a std::map reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "model/value.h"

namespace kd::model {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.Serialize(), "null");
}

TEST(ValueTest, ScalarConstruction) {
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("pod").as_string(), "pod");
  EXPECT_EQ(Value(std::int64_t{1} << 40).as_int(), std::int64_t{1} << 40);
}

// The compact layout: a type, a scalar union and a payload pointer; an
// object field is its key beside the Value, in one array slot.
TEST(ValueTest, CompactLayout) {
  EXPECT_EQ(sizeof(Value), 3 * sizeof(void*));
  EXPECT_EQ(sizeof(Value::Object::value_type),
            sizeof(std::string) + sizeof(Value));
}

TEST(ValueTest, NumericCrossAccess) {
  EXPECT_DOUBLE_EQ(Value(3).as_double(), 3.0);
  EXPECT_EQ(Value(3.9).as_int(), 3);
}

TEST(ValueTest, MismatchedAccessReturnsZeroValues) {
  Value v("string");
  EXPECT_FALSE(v.as_bool());
  EXPECT_EQ(v.as_int(), 0);
  EXPECT_EQ(Value(5).as_string(), "");
}

TEST(ValueTest, ObjectIndexing) {
  Value v = Value::MakeObject();
  v["a"] = 1;
  v["b"]["c"] = "deep";
  EXPECT_EQ(v["a"].as_int(), 1);
  EXPECT_EQ(v["b"]["c"].as_string(), "deep");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("z"));
  // The mutable [] inserts a missing key; the const path is checked
  // below.
  EXPECT_TRUE(v["z"].is_null());
}

TEST(ValueTest, ConstIndexMissingKeyIsNull) {
  const Value v = Value::MakeObject();
  EXPECT_TRUE(v["missing"].is_null());
  EXPECT_EQ(v.size(), 0u);  // const access did not insert
}

TEST(ValueTest, ArrayOperations) {
  Value v = Value::MakeArray();
  v.push_back(1);
  v.push_back("two");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.at(0).as_int(), 1);
  EXPECT_EQ(v.at(1).as_string(), "two");
  EXPECT_TRUE(v.at(99).is_null());
}

TEST(ValueTest, CopyIsDeep) {
  Value a = Value::MakeObject();
  a["x"]["y"] = 1;
  Value b = a;
  b["x"]["y"] = 2;
  EXPECT_EQ(a["x"]["y"].as_int(), 1);
  EXPECT_EQ(b["x"]["y"].as_int(), 2);
}

TEST(ValueTest, FindPath) {
  Value v = Value::MakeObject();
  v["spec"]["template"]["spec"]["nodeName"] = "worker1";
  const Value* p = v.FindPath("spec.template.spec.nodeName");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->as_string(), "worker1");
  EXPECT_EQ(v.FindPath("spec.missing.path"), nullptr);
  EXPECT_EQ(v.FindPath("nonexistent"), nullptr);
}

TEST(ValueTest, FindPathSingleSegment) {
  Value v = Value::MakeObject();
  v["replicas"] = 5;
  const Value* p = v.FindPath("replicas");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->as_int(), 5);
}

TEST(ValueTest, SetPathCreatesIntermediates) {
  Value v = Value::MakeObject();
  v.SetPath("spec.nodeName", Value("worker3"));
  EXPECT_EQ(v["spec"]["nodeName"].as_string(), "worker3");
  v.SetPath("spec.nodeName", Value("worker4"));
  EXPECT_EQ(v["spec"]["nodeName"].as_string(), "worker4");
}

TEST(ValueTest, SetPathOverwritesScalarWithObject) {
  Value v = Value::MakeObject();
  v["spec"] = 5;
  v.SetPath("spec.replicas", Value(3));
  EXPECT_EQ(v["spec"]["replicas"].as_int(), 3);
}

TEST(ValueTest, ErasePath) {
  Value v = Value::MakeObject();
  v.SetPath("a.b.c", Value(1));
  v.SetPath("a.b.d", Value(2));
  EXPECT_TRUE(v.ErasePath("a.b.c"));
  EXPECT_EQ(v.FindPath("a.b.c"), nullptr);
  ASSERT_NE(v.FindPath("a.b.d"), nullptr);
  EXPECT_FALSE(v.ErasePath("a.b.c"));
  EXPECT_FALSE(v.ErasePath("nope.nope"));
  EXPECT_TRUE(v.ErasePath("a"));
  EXPECT_FALSE(v.contains("a"));
}

TEST(ValueTest, SerializeCompactAndSorted) {
  Value v = Value::MakeObject();
  v["b"] = 2;
  v["a"] = 1;
  EXPECT_EQ(v.Serialize(), "{\"a\":1,\"b\":2}");
}

TEST(ValueTest, SerializeEscapes) {
  Value v("line1\nline2\t\"quoted\"\\");
  EXPECT_EQ(v.Serialize(), "\"line1\\nline2\\t\\\"quoted\\\"\\\\\"");
}

TEST(ValueTest, ParseRoundTripScalars) {
  for (const std::string text :
       {"null", "true", "false", "42", "-17", "2.5", "\"hello\"",
        "\"esc\\n\\\"\""}) {
    auto parsed = Value::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->Serialize(), text) << text;
  }
}

TEST(ValueTest, ParseRoundTripNested) {
  Value v = Value::MakeObject();
  v["spec"]["replicas"] = 5;
  v["spec"]["nodeName"] = "w1";
  Value arr = Value::MakeArray();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Value::MakeObject());
  v["list"] = std::move(arr);
  const std::string text = v.Serialize();
  auto parsed = Value::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, v);
  EXPECT_EQ(parsed->Serialize(), text);
}

TEST(ValueTest, ParseToleratesWhitespace) {
  auto parsed = Value::Parse("  { \"a\" : [ 1 , 2 ] ,\n\"b\" : null }  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)["a"].size(), 2u);
}

TEST(ValueTest, ParseErrors) {
  EXPECT_FALSE(Value::Parse("").ok());
  EXPECT_FALSE(Value::Parse("{").ok());
  EXPECT_FALSE(Value::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Value::Parse("[1,]").ok());
  EXPECT_FALSE(Value::Parse("\"unterminated").ok());
  EXPECT_FALSE(Value::Parse("42 trailing").ok());
  EXPECT_FALSE(Value::Parse("{\"a\":1} {}").ok());
}

TEST(ValueTest, EqualityStructural) {
  Value a = Value::MakeObject();
  a["x"] = 1;
  Value b = Value::MakeObject();
  b["x"] = 1;
  EXPECT_EQ(a, b);
  b["x"] = 2;
  EXPECT_NE(a, b);
}

TEST(ValueTest, EqualityNumericCrossType) {
  EXPECT_EQ(Value(5), Value(5.0));
  EXPECT_NE(Value(5), Value(5.5));
}

TEST(ValueTest, HashEqualForEqualValues) {
  Value a = Value::MakeObject();
  a["n"] = 1;
  a["s"] = "x";
  Value b = a;
  EXPECT_EQ(a.Hash(), b.Hash());
  b["n"] = 2;
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(ValueDiffTest, IdenticalProducesEmptyDiff) {
  Value a = Value::MakeObject();
  a["spec"]["replicas"] = 3;
  EXPECT_TRUE(Value::Diff(a, a).empty());
}

TEST(ValueDiffTest, ChangedLeafReported) {
  Value before = Value::MakeObject();
  before["spec"]["replicas"] = 3;
  Value after = before;
  after["spec"]["replicas"] = 7;
  auto diff = Value::Diff(before, after);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].first, "spec.replicas");
  EXPECT_EQ(diff[0].second.as_int(), 7);
}

TEST(ValueDiffTest, AddedSubtreeReportedAtRootOfAddition) {
  Value before = Value::MakeObject();
  Value after = before;
  after["status"]["phase"] = "Running";
  auto diff = Value::Diff(before, after);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].first, "status");
  EXPECT_EQ(diff[0].second["phase"].as_string(), "Running");
}

TEST(ValueDiffTest, RemovedKeyReportedAsNull) {
  Value before = Value::MakeObject();
  before["spec"]["nodeName"] = "w1";
  before["spec"]["keep"] = 1;
  Value after = before;
  after["spec"].erase("nodeName");
  auto diff = Value::Diff(before, after);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].first, "spec.nodeName");
  EXPECT_TRUE(diff[0].second.is_null());
}

TEST(ValueDiffTest, ApplyingDiffReconstructsTarget) {
  Value before = Value::MakeObject();
  before["spec"]["a"] = 1;
  before["spec"]["b"] = "x";
  before["status"]["phase"] = "Pending";
  Value after = before;
  after["spec"]["a"] = 2;
  after["status"]["phase"] = "Running";
  after["status"]["podIP"] = "10.0.0.9";
  after["spec"].erase("b");

  Value rebuilt = before;
  for (const auto& [path, value] : Value::Diff(before, after)) {
    if (value.is_null()) {
      rebuilt.ErasePath(path);
    } else {
      rebuilt.SetPath(path, value);
    }
  }
  EXPECT_EQ(rebuilt, after);
}

TEST(ValueDiffTest, ScalarToObjectReportedWhole) {
  Value before = Value::MakeObject();
  before["x"] = 5;
  Value after = Value::MakeObject();
  after["x"]["nested"] = true;
  auto diff = Value::Diff(before, after);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].first, "x");
  EXPECT_TRUE(diff[0].second.is_object());
}


// --- copy-on-write semantics -------------------------------------------

TEST(ValueCowTest, CopyShareThenWriteDetaches) {
  Value a = Value::MakeObject();
  a["spec"]["replicas"] = 3;
  Value b = a;
  ASSERT_TRUE(a.SharesPayloadWith(b));
  b["spec"]["replicas"] = 7;  // writer detaches
  EXPECT_FALSE(a.SharesPayloadWith(b));
  EXPECT_EQ(a["spec"]["replicas"].as_int(), 3);
  EXPECT_EQ(b["spec"]["replicas"].as_int(), 7);
}

TEST(ValueCowTest, ReadersNeverDetach) {
  Value a = Value::MakeObject();
  a["x"]["y"] = "deep";
  const Value b = a;
  // Const access on both sides leaves the payload shared.
  EXPECT_EQ(b["x"]["y"].as_string(), "deep");
  EXPECT_EQ(a.Serialize(), b.Serialize());
  EXPECT_EQ(a.SerializedSize(), b.SerializedSize());
  EXPECT_TRUE(a.SharesPayloadWith(b));
}

TEST(ValueCowTest, DetachIsShallowChildrenKeepSharing) {
  Value a = Value::MakeObject();
  a["meta"]["labels"]["app"] = "fn";
  a["top"] = 1;
  Value b = a;
  b["top"] = 2;  // detaches only the root node
  EXPECT_FALSE(a.SharesPayloadWith(b));
  EXPECT_TRUE(a["meta"].SharesPayloadWith(b["meta"]));
  // A write into the shared subtree detaches just that path.
  b["meta"]["labels"]["app"] = "other";
  EXPECT_FALSE(a["meta"].SharesPayloadWith(b["meta"]));
  EXPECT_EQ(a["meta"]["labels"]["app"].as_string(), "fn");
  EXPECT_EQ(b["meta"]["labels"]["app"].as_string(), "other");
}

TEST(ValueCowTest, SetPathAndErasePathDoNotAliasSharedCopies) {
  Value a = Value::MakeObject();
  a.SetPath("spec.template.spec.nodeName", Value("n1"));
  a.SetPath("spec.extra", Value(1));
  Value b = a;
  b.SetPath("spec.template.spec.nodeName", Value("n2"));
  EXPECT_EQ(a.FindPath("spec.template.spec.nodeName")->as_string(), "n1");
  EXPECT_EQ(b.FindPath("spec.template.spec.nodeName")->as_string(), "n2");
  Value c = a;
  EXPECT_TRUE(c.ErasePath("spec.extra"));
  EXPECT_NE(a.FindPath("spec.extra"), nullptr);
  EXPECT_EQ(c.FindPath("spec.extra"), nullptr);
  // Missing path: reports false and does not detach.
  Value d = a;
  EXPECT_FALSE(d.ErasePath("spec.missing"));
  EXPECT_TRUE(d.SharesPayloadWith(a));
}

TEST(ValueCowTest, SharedPayloadEqualityFastPathStillByValue) {
  Value a = Value::MakeObject();
  a["k"] = "v";
  Value b = a;          // shared: fast path
  EXPECT_EQ(a, b);
  b["k"] = "v";         // detached but structurally identical
  EXPECT_FALSE(a.SharesPayloadWith(b));
  EXPECT_EQ(a, b);      // deep comparison still says equal
  b["k"] = "w";
  EXPECT_NE(a, b);
}

// --- SerializedSize cache ----------------------------------------------

TEST(ValueSizeCacheTest, SizeMatchesSerializeAcrossMutations) {
  Value v = Value::MakeObject();
  v["a"]["b"] = 1;
  v["list"].push_back("x\ny");  // escaping counted, not expanded
  v["num"] = 3.25;
  EXPECT_EQ(v.SerializedSize(), v.Serialize().size());
  // Mutate through every kind of writer and re-check the cache.
  v["a"]["b"] = "longer string than before";
  EXPECT_EQ(v.SerializedSize(), v.Serialize().size());
  v["list"].push_back(Value::MakeObject());
  EXPECT_EQ(v.SerializedSize(), v.Serialize().size());
  v.SetPath("a.c.d", Value(true));
  EXPECT_EQ(v.SerializedSize(), v.Serialize().size());
  v.ErasePath("a.b");
  EXPECT_EQ(v.SerializedSize(), v.Serialize().size());
  v.erase("num");
  EXPECT_EQ(v.SerializedSize(), v.Serialize().size());
  v.array();  // mutable view invalidates too
  EXPECT_EQ(v.SerializedSize(), v.Serialize().size());
}

TEST(ValueSizeCacheTest, SizeIsIndependentPerCopyAfterDetach) {
  Value a = Value::MakeObject();
  a["payload"] = std::string(1000, 'x');
  const std::size_t original = a.SerializedSize();
  Value b = a;
  b["payload"] = "tiny";
  EXPECT_EQ(a.SerializedSize(), original);
  EXPECT_EQ(b.SerializedSize(), b.Serialize().size());
  EXPECT_LT(b.SerializedSize(), original);
}

// --- Escape count and incremental array edits ------------------------

// A fresh recount of what the escape cache memoizes.
std::size_t QuotesAndBackslashes(const std::string& text) {
  return static_cast<std::size_t>(std::count_if(
      text.begin(), text.end(), [](char c) { return c == '"' || c == '\\'; }));
}

void ExpectCachesExact(const Value& v) {
  const std::string text = v.Serialize();
  EXPECT_EQ(v.SerializedSize(), text.size()) << text;
  EXPECT_EQ(v.SerializedEscapes(), QuotesAndBackslashes(text)) << text;
}

TEST(ValueEscapeCacheTest, CountsEveryEscapeKind) {
  // Quotes, backslashes, the backslash of \n \t \r and of \u00XX;
  // UTF-8 and DEL pass through.
  for (const char* s : {"", "plain", "a\"b", "back\\slash", "nl\nt\tr\r",
                        "\x01\x1f", "é→😀", "\x7f"}) {
    ExpectCachesExact(Value(s));
    EXPECT_EQ(JsonStringEscapes(s), Value(s).SerializedEscapes()) << s;
  }
  for (const Value& scalar : {Value(), Value(true), Value(-5), Value(2.5)}) {
    EXPECT_EQ(scalar.SerializedEscapes(), 0u);
  }
  Value obj = Value::MakeObject();
  obj["k\"ey"] = "v\\al";
  obj["n"] = 1;
  obj["nested"]["list"].push_back("x\ny");
  ExpectCachesExact(obj);
  obj["nested"]["list"].push_back("\"");  // invalidates up the path
  ExpectCachesExact(obj);
}

TEST(ValueEscapeCacheTest, EmptyAndOneElementTransitions) {
  Value arr = Value::MakeArray();
  ExpectCachesExact(arr);  // primes both caches at "[]"
  arr.InsertAt(0, "a\"");
  ExpectCachesExact(arr);
  arr.EraseAt(0);
  ExpectCachesExact(arr);
  arr.push_back(Value::MakeArray());
  ExpectCachesExact(arr);
  arr.InsertAt(0, "x");
  ExpectCachesExact(arr);
  arr.EraseAt(1);
  ExpectCachesExact(arr);
  arr.EraseAt(0);
  ExpectCachesExact(arr);
  arr.EraseAt(0);  // out of range: no-op
  ExpectCachesExact(arr);
  EXPECT_EQ(arr.Serialize(), "[]");
  arr.InsertAt(7, "clamped");  // past the end appends
  ExpectCachesExact(arr);
  EXPECT_EQ(arr.at(0).as_string(), "clamped");
}

TEST(ValueEscapeCacheTest, InsertAtConvertsNonArrays) {
  Value v = Value::MakeObject();
  v["k"] = 1;
  ExpectCachesExact(v);
  v.InsertAt(0, "a");
  EXPECT_TRUE(v.is_array());
  ExpectCachesExact(v);
  Value null_value;
  null_value.EraseAt(0);  // not an array: no-op
  EXPECT_TRUE(null_value.is_null());
}

TEST(ValueEscapeCacheTest, SharedArrayEditDetachesWithExactCaches) {
  Value a = Value::MakeArray();
  for (const char* s : {"10.0.0.1", "q\"", "b\\"}) a.push_back(s);
  ExpectCachesExact(a);
  Value b = a;  // shares the node and its caches
  ASSERT_TRUE(a.SharesPayloadWith(b));
  const std::string before = a.Serialize();
  b.InsertAt(1, "new\n");
  EXPECT_FALSE(a.SharesPayloadWith(b));
  EXPECT_EQ(a.Serialize(), before);
  ExpectCachesExact(a);
  ExpectCachesExact(b);
  Value c = b;
  c.EraseAt(0);
  EXPECT_FALSE(b.SharesPayloadWith(c));
  ExpectCachesExact(b);
  ExpectCachesExact(c);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(c.size(), 3u);
}

Value RandomElement(Rng& rng) {
  static const char* const kStrings[] = {"", "10.0.0.7", "q\"", "b\\",
                                         "t\t", "\x02", "é"};
  switch (rng.UniformInt(4)) {
    case 0:
      return Value(kStrings[rng.UniformInt(std::size(kStrings))]);
    case 1:
      return Value(static_cast<std::int64_t>(rng.UniformInt(1000)) - 500);
    case 2: {
      Value arr = Value::MakeArray();
      arr.push_back(kStrings[rng.UniformInt(std::size(kStrings))]);
      return arr;
    }
    default: {
      Value obj = Value::MakeObject();
      obj["k\"" + std::to_string(rng.UniformInt(3))] = "v\\";
      return obj;
    }
  }
}

// A seeded walk of inserts, erases (in and out of range), appends,
// shared copies and invalidating element writes. The caches are primed
// before every edit, so what gets checked is the carried-forward count,
// not a recomputation.
TEST(ValueEscapeCacheTest, RandomEditsKeepCachesEqualToRecount) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<Value> live = {Value::MakeArray()};
    for (int step = 0; step < 200; ++step) {
      const std::size_t pick = rng.UniformInt(live.size());
      live[pick].SerializedSize();
      Value& v = live[pick];
      switch (rng.UniformInt(5)) {
        case 0:
          v.InsertAt(rng.UniformInt(v.size() + 2), RandomElement(rng));
          break;
        case 1:
          v.EraseAt(rng.UniformInt(v.size() + 1));
          break;
        case 2:
          v.push_back(RandomElement(rng));
          break;
        case 3:
          if (live.size() < 6) {
            Value copy = v;  // shares the node until either side edits
            live.push_back(std::move(copy));
          }
          break;
        default:
          if (v.size() > 0) v.at(rng.UniformInt(v.size())) = RandomElement(rng);
          break;
      }
      for (const Value& each : live) ExpectCachesExact(each);
      if (HasFailure()) return;
    }
  }
}


// --- Field-array oracle --------------------------------------------------
//
// Seeded walks of object edits against a reference tree the test keeps
// in std::map, rendered and diffed by the test itself. After every step
// the Value must agree with the reference on key order, serialized
// bytes, memoized size and escape count, hash, equality, and the diff
// from the previous state.

// A reference node: a scalar/string leaf, or an object whose fields a
// std::map keeps in key order.
struct Ref {
  bool is_object = false;
  Value leaf;
  std::map<std::string, Ref> fields;
};

Ref RefObject() {
  Ref r;
  r.is_object = true;
  return r;
}

std::string RefSerialize(const Ref& r) {
  if (!r.is_object) return r.leaf.Serialize();
  std::string out = "{";
  for (const auto& [k, child] : r.fields) {
    if (out.size() > 1) out += ',';
    out += Value(k).Serialize();  // the key as a JSON string
    out += ':';
    out += RefSerialize(child);
  }
  return out + "}";
}

Value RefToValue(const Ref& r) {
  if (!r.is_object) return r.leaf;
  Value v = Value::MakeObject();
  for (const auto& [k, child] : r.fields) v[k] = RefToValue(child);
  return v;
}

bool RefEqual(const Ref& a, const Ref& b) {
  if (a.is_object != b.is_object) return false;
  if (!a.is_object) return a.leaf == b.leaf;
  if (a.fields.size() != b.fields.size()) return false;
  for (auto ai = a.fields.begin(), bi = b.fields.begin(); ai != a.fields.end();
       ++ai, ++bi) {
    if (ai->first != bi->first || !RefEqual(ai->second, bi->second)) {
      return false;
    }
  }
  return true;
}

// Value::Diff's contract, restated over the reference: removed keys
// first (as nulls), then added and changed ones, both in key order.
void RefDiff(const std::string& prefix, const Ref& before, const Ref& after,
             std::vector<std::pair<std::string, std::string>>& out) {
  if (RefEqual(before, after)) return;
  if (!before.is_object || !after.is_object) {
    out.emplace_back(prefix, RefSerialize(after));
    return;
  }
  const auto path = [&prefix](const std::string& k) {
    return prefix.empty() ? k : prefix + "." + k;
  };
  for (const auto& [k, child] : before.fields) {
    if (after.fields.count(k) == 0) out.emplace_back(path(k), "null");
  }
  for (const auto& [k, child] : after.fields) {
    auto it = before.fields.find(k);
    if (it == before.fields.end()) {
      out.emplace_back(path(k), RefSerialize(child));
    } else {
      RefDiff(path(k), it->second, child, out);
    }
  }
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Key order of every object in `v`, depth first, next to the
// reference's.
void CollectKeys(const Value& v, std::vector<std::string>& out) {
  if (!v.is_object()) return;
  for (const auto& [k, child] : v.object()) {
    out.push_back(k);
    CollectKeys(child, out);
  }
}
void CollectKeys(const Ref& r, std::vector<std::string>& out) {
  if (!r.is_object) return;
  for (const auto& [k, child] : r.fields) {
    out.push_back(k);
    CollectKeys(child, out);
  }
}

// Shared prefixes, the empty key, quotes, backslashes, a control byte
// and bytes above 0x7f (which sort after ASCII: the order is unsigned).
const char* const kOracleKeys[] = {"", "a", "ab", "abc", "abd", "b", "q\"uote",
                                   "back\\", "\\\"", "spec", "nodeName", "\x01",
                                   "\xc3\xa9", "A", "z", "a\x7f"};
// Path segments stay few so SetPath trees stay small.
const char* const kOracleSegments[] = {"", "a", "ab", "b", "q\"", "\\"};

// A scalar or string leaf, or a one-field object.
Ref RandomRef(Rng& rng) {
  static const char* const kStrings[] = {"", "v", "q\"", "b\\", "t\t",
                                         "\x02", "\xc3\xa9"};
  Ref r;
  switch (rng.UniformInt(5)) {
    case 0:
      r.leaf = Value(kStrings[rng.UniformInt(std::size(kStrings))]);
      break;
    case 1:
      r.leaf = Value(static_cast<std::int64_t>(rng.UniformInt(2000)) - 1000);
      break;
    case 2:
      r.leaf = Value(rng.UniformInt(2) == 0);
      break;
    case 3:
      r.leaf = Value();
      break;
    default:
      r = RefObject();
      r.fields[kOracleKeys[rng.UniformInt(std::size(kOracleKeys))]] =
          Ref{false, Value(1), {}};
      break;
  }
  return r;
}

std::vector<std::string> RandomPath(Rng& rng) {
  std::vector<std::string> parts(1 + rng.UniformInt(3));
  for (auto& part : parts) {
    part = kOracleSegments[rng.UniformInt(std::size(kOracleSegments))];
  }
  return parts;
}

std::string JoinPath(const std::vector<std::string>& parts) {
  std::string path;
  for (const auto& part : parts) {
    if (&part != &parts.front()) path += '.';
    path += part;
  }
  return path;
}

// SetPath on the reference: every non-object on the way becomes an
// empty object.
void RefSetPath(Ref& root, const std::vector<std::string>& parts,
                const Ref& value) {
  Ref* cur = &root;
  for (const auto& part : parts) {
    if (!cur->is_object) *cur = RefObject();
    cur = &cur->fields[part];
  }
  *cur = value;
}

bool RefErasePath(Ref& root, const std::vector<std::string>& parts) {
  Ref* cur = &root;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (!cur->is_object) return false;
    auto it = cur->fields.find(parts[i]);
    if (it == cur->fields.end()) return false;
    cur = &it->second;
  }
  return cur->is_object && cur->fields.erase(parts.back()) > 0;
}

void ExpectMatchesRef(const Value& v, const Ref& ref) {
  const std::string want = RefSerialize(ref);
  ASSERT_EQ(v.Serialize(), want);
  std::vector<std::string> got_keys;
  std::vector<std::string> want_keys;
  CollectKeys(v, got_keys);
  CollectKeys(ref, want_keys);
  EXPECT_EQ(got_keys, want_keys);
  EXPECT_EQ(v.SerializedSize(), want.size());
  EXPECT_EQ(v.SerializedEscapes(), QuotesAndBackslashes(want));
  EXPECT_EQ(v.Hash(), Fnv1a(want));
  EXPECT_TRUE(v == RefToValue(ref));
}

void ExpectDiffMatchesRef(const Value& before, const Value& after,
                          const Ref& ref_before, const Ref& ref_after) {
  std::vector<std::pair<std::string, std::string>> want;
  RefDiff("", ref_before, ref_after, want);
  std::vector<std::pair<std::string, std::string>> got;
  for (const auto& [path, value] : Value::Diff(before, after)) {
    got.emplace_back(path, value.Serialize());
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(before == after, RefEqual(ref_before, ref_after));
}

TEST(ValueFieldOracleTest, SeededEditWalksMatchSortedMapReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Value v = Value::MakeObject();
    Ref ref = RefObject();
    for (int step = 0; step < 2000; ++step) {
      const Value prev = v;  // shares every node until v is written
      const Ref prev_ref = ref;
      v.SerializedSize();  // primed: edits must invalidate, not recount
      const std::string key =
          kOracleKeys[rng.UniformInt(std::size(kOracleKeys))];
      switch (rng.UniformInt(8)) {
        case 0:
        case 1: {  // write through operator[], new or existing key
          const Ref value = RandomRef(rng);
          v[key] = RefToValue(value);
          ref.fields[key] = value;
          break;
        }
        case 2: {  // nested write through a chain of operator[]
          const std::string inner =
              kOracleKeys[rng.UniformInt(std::size(kOracleKeys))];
          v[key][inner] = static_cast<std::int64_t>(step);
          Ref& outer = ref.fields[key];
          if (!outer.is_object) outer = RefObject();
          outer.fields[inner] = Ref{false, Value(step), {}};
          break;
        }
        case 3:
          v.erase(key);
          ref.fields.erase(key);
          break;
        case 4: {
          const std::vector<std::string> parts = RandomPath(rng);
          const Ref value = RandomRef(rng);
          v.SetPath(JoinPath(parts), RefToValue(value));
          RefSetPath(ref, parts, value);
          break;
        }
        case 5: {
          const std::vector<std::string> parts = RandomPath(rng);
          EXPECT_EQ(v.ErasePath(JoinPath(parts)), RefErasePath(ref, parts));
          break;
        }
        case 6: {  // copy, then write the copy: the original stays put
          Value copy = v;
          copy[key] = "copy-only";
          Ref copy_ref = ref;
          copy_ref.fields[key] = Ref{false, Value("copy-only"), {}};
          ExpectMatchesRef(copy, copy_ref);
          ExpectMatchesRef(v, ref);
          if (rng.UniformInt(2) == 0) {
            v = std::move(copy);
            ref = std::move(copy_ref);
          }
          break;
        }
        default: {
          StatusOr<Value> parsed = Value::Parse(v.Serialize());
          ASSERT_TRUE(parsed.ok());
          v = std::move(*parsed);
          break;
        }
      }
      ExpectMatchesRef(v, ref);
      ExpectMatchesRef(prev, prev_ref);
      ExpectDiffMatchesRef(prev, v, prev_ref, ref);
      if (HasFailure()) {
        ADD_FAILURE() << "seed " << seed << " step " << step;
        return;
      }
    }
  }
}

TEST(ValueFieldOracleTest, ParseKeepsFirstOfDuplicateKeys) {
  StatusOr<Value> v = Value::Parse(R"({"a":1,"a":2})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 1u);
  EXPECT_EQ((*v)["a"].as_int(), 1);
  // Out of order, with the duplicate after a smaller key.
  v = Value::Parse(R"({"b":"first","a":0,"b":"second"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Serialize(), R"({"a":0,"b":"first"})");
  ExpectCachesExact(*v);
}

TEST(ValueFieldOracleTest, TenThousandFieldObjectRoundTrips) {
  std::vector<std::string> keys;
  for (int i = 0; i < 10'000; ++i) keys.push_back(StrFormat("k%d", i));
  Rng rng(7);
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.UniformInt(i + 1)]);
  }
  Value v = Value::MakeObject();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    v[keys[i]] = static_cast<std::int64_t>(i);
  }
  ASSERT_EQ(v.size(), 10'000u);
  std::vector<std::string> order;
  CollectKeys(v, order);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  const std::string text = v.Serialize();
  StatusOr<Value> parsed = Value::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, v);
  EXPECT_EQ(parsed->Serialize(), text);
  EXPECT_EQ(parsed->Hash(), v.Hash());
  ExpectCachesExact(*parsed);
  for (std::size_t i = 0; i < keys.size(); i += 997) {
    EXPECT_EQ((*parsed)[keys[i]].as_int(), static_cast<std::int64_t>(i));
  }
}

TEST(ValueSizeCacheTest, IntSizeMatchesPrintfForEveryMagnitude) {
  std::vector<std::int64_t> values = {0,
                                      std::numeric_limits<std::int64_t>::min(),
                                      std::numeric_limits<std::int64_t>::max()};
  for (std::int64_t p = 1; p <= std::numeric_limits<std::int64_t>::max() / 10;
       p *= 10) {
    for (std::int64_t v : {p - 1, p, p + 1, 10 * p - 1}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<std::int64_t>(rng.Next()));
  }
  for (std::int64_t v : values) {
    char buf[24];
    const int n =
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    EXPECT_EQ(JsonIntSize(v), static_cast<std::size_t>(n)) << v;
    EXPECT_EQ(Value(v).SerializedSize(), static_cast<std::size_t>(n)) << v;
  }
}

}  // namespace
}  // namespace kd::model
