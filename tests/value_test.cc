// Unit tests for the JSON-like Value type: construction, path access,
// serialization round trips, hashing, structural diff, and the
// memoized size and escape caches under in-place array edits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
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
  EXPECT_TRUE(v["z"].is_null());  // const-access of missing key via mutable [] inserts; check const path
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

}  // namespace
}  // namespace kd::model
