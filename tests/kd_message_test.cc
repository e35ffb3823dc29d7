// Tests for the minimal message format (§3.2): encoding round trips,
// wire sizes (the computed batch size against the reference codec),
// batching, and dynamic materialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kubedirect/materialize.h"
#include "kubedirect/message.h"
#include "model/objects.h"
#include "runtime/cache.h"

namespace kd::kubedirect {
namespace {

using model::ApiObject;
using model::MakePodFromTemplate;
using model::MakeReplicaSet;
using model::RealisticPodTemplateSpec;

ApiObject Rs(const std::string& name, int replicas = 1) {
  return MakeReplicaSet(name, "fn", 1, replicas,
                        RealisticPodTemplateSpec("fn"));
}

TEST(KdMessageTest, UpsertRoundTrip) {
  KdMessage msg;
  msg.obj_key = "Pod/p1";
  msg.attrs.emplace("spec.nodeName", KdValue::Literal("worker1"));
  msg.attrs.emplace("spec",
                    KdValue::Pointer("ReplicaSet/rs1", "spec.template.spec"));
  WireMessage wire;
  wire.type = WireMessage::Type::kUpsert;
  wire.message = msg;
  auto parsed = WireMessage::Parse(wire.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, WireMessage::Type::kUpsert);
  EXPECT_EQ(parsed->message, msg);
}

TEST(KdMessageTest, AllScalarTypesRoundTrip) {
  for (auto type :
       {WireMessage::Type::kRemove, WireMessage::Type::kTombstone,
        WireMessage::Type::kAck}) {
    WireMessage wire;
    wire.type = type;
    wire.key = "Pod/p9";
    auto parsed = WireMessage::Parse(wire.Serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->type, type);
    EXPECT_EQ(parsed->key, "Pod/p9");
  }
}

TEST(KdMessageTest, StateVersionsRoundTrip) {
  WireMessage wire;
  wire.type = WireMessage::Type::kStateVersions;
  wire.versions["Pod/a"] = 0xDEADBEEFCAFEF00DULL;
  wire.versions["Pod/b"] = 42;
  auto parsed = WireMessage::Parse(wire.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->versions, wire.versions);
}

TEST(KdMessageTest, StateRequestAndSnapshotRoundTrip) {
  WireMessage request;
  request.type = WireMessage::Type::kStateRequest;
  request.keys = {"Pod/a", "Pod/b"};
  auto parsed_request = WireMessage::Parse(request.Serialize());
  ASSERT_TRUE(parsed_request.ok());
  EXPECT_EQ(parsed_request->keys, request.keys);

  WireMessage snapshot;
  snapshot.type = WireMessage::Type::kStateSnapshot;
  snapshot.objects.push_back(Rs("rs1"));
  auto parsed_snapshot = WireMessage::Parse(snapshot.Serialize());
  ASSERT_TRUE(parsed_snapshot.ok());
  ASSERT_EQ(parsed_snapshot->objects.size(), 1u);
  EXPECT_EQ(parsed_snapshot->objects[0], snapshot.objects[0]);
}

TEST(KdMessageTest, ParseRejectsGarbage) {
  EXPECT_FALSE(WireMessage::Parse("nonsense").ok());
  EXPECT_FALSE(WireMessage::Parse("{\"t\":\"zz\"}").ok());
  EXPECT_FALSE(WireMessage::Parse("{\"t\":\"u\",\"m\":{\"a\":1}}").ok());
}

TEST(KdMessageTest, BatchRoundTrip) {
  std::vector<WireMessage> batch;
  for (int i = 0; i < 5; ++i) {
    WireMessage wire;
    wire.type = WireMessage::Type::kTombstone;
    wire.key = "Pod/p" + std::to_string(i);
    batch.push_back(wire);
  }
  auto parsed = ParseBatch(SerializeBatch(batch));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 5u);
  EXPECT_EQ((*parsed)[3].key, "Pod/p3");
}

// The headline size claim: a pod-creation message is two orders of
// magnitude smaller than the full serialized pod (~100 B vs ~17 KB).
TEST(KdMessageTest, PodCreateMessageIsTiny) {
  ApiObject rs = Rs("fn-v1");
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs);
  KdMessage msg = PodCreateMessage(pod, rs.Key());
  WireMessage wire;
  wire.type = WireMessage::Type::kUpsert;
  wire.message = msg;
  const std::size_t kd_size = wire.SerializedSize();
  const std::size_t full_size = pod.SerializedSize();
  EXPECT_LT(kd_size, 400u);
  EXPECT_GT(full_size, 10'000u);
  EXPECT_GT(full_size / kd_size, 30u);
}

TEST(KdMessageTest, DiffMessageCarriesOnlyChanges) {
  ApiObject rs = Rs("fn-v1");
  ApiObject pod = MakePodFromTemplate("p", rs);
  ApiObject scheduled = pod;
  model::SetNodeName(scheduled, "worker7");
  KdMessage msg = DiffMessage(pod, scheduled);
  ASSERT_EQ(msg.attrs.size(), 1u);
  EXPECT_TRUE(msg.attrs.count("spec.nodeName"));
  EXPECT_EQ(msg.attrs.at("spec.nodeName").literal().as_string(), "worker7");
}

TEST(KdMessageTest, FullObjectMessageMatchesObjectSize) {
  ApiObject rs = Rs("fn-v1");
  ApiObject pod = MakePodFromTemplate("p", rs);
  WireMessage wire;
  wire.type = WireMessage::Type::kUpsert;
  wire.message = FullObjectMessage(pod);
  // Naive full-object passing (Fig. 14 baseline) is the same order of
  // magnitude as the API object itself.
  EXPECT_GT(wire.SerializedSize(), pod.SerializedSize() / 2);
}

// --- Computed wire size vs the reference codec ---------------------------
//
// KdLink charges a batch SerializedBatchSize() without encoding it, so
// the size rule must match the codec byte for byte on every input
// shape: escapes in strings (which count twice, once per JSON level),
// control bytes, UTF-8, extreme numbers, empty and nested containers,
// pointers. A seeded generator covers all eight message types.

class WireGen {
 public:
  explicit WireGen(std::uint64_t seed) : rng_(seed) {}

  // `allow_hash`: a pointer's object key may not contain '#', the
  // separator of its "key#path" encoding.
  std::string String(bool allow_hash = true) {
    static const char* const kPieces[] = {
        "a",  "Z",    "0",    " ",    "\"",   "\\",  "\n",
        "\t", "\r",   "\x01", "\x1f", "\x7f", "/",   "Pod/fn-1",
        "é",  "→",    "😀",   "{}",   "[,]",  ":",   "\\\"",
        "#"};
    std::string out;
    const int n = static_cast<int>(rng_.UniformInt(8));
    for (int i = 0; i < n; ++i) {
      const char* piece =
          kPieces[rng_.UniformInt(std::size(kPieces) - (allow_hash ? 0 : 1))];
      out += piece;
    }
    return out;
  }

  std::int64_t Int() {
    switch (rng_.UniformInt(5)) {
      case 0: return std::numeric_limits<std::int64_t>::min();
      case 1: return std::numeric_limits<std::int64_t>::max();
      case 2: return -static_cast<std::int64_t>(rng_.UniformInt(1000));
      case 3: return 0;
      default: return static_cast<std::int64_t>(rng_.Next() >> 1);
    }
  }

  // Non-integral doubles: an integral one renders like an int and, by
  // design of the format, parses back as one.
  double Double() {
    switch (rng_.UniformInt(4)) {
      case 0: return 0.1;
      case 1: return -1.25e-300;
      case 2: return 1.7976931348623157e308;
      default: return rng_.UniformDouble() - 0.5 + 1e-9;
    }
  }

  model::Value Value(int depth) {
    switch (rng_.UniformInt(depth > 0 ? 8 : 6)) {
      case 0: return model::Value();
      case 1: return model::Value(rng_.UniformInt(2) == 0);
      case 2: return model::Value(Int());
      case 3: return model::Value(Double());
      case 4:
      case 5: return model::Value(String());
      case 6: {
        model::Value arr = model::Value::MakeArray();
        const int n = static_cast<int>(rng_.UniformInt(4));
        for (int i = 0; i < n; ++i) arr.push_back(Value(depth - 1));
        return arr;
      }
      default: {
        model::Value obj = model::Value::MakeObject();
        const int n = static_cast<int>(rng_.UniformInt(4));
        for (int i = 0; i < n; ++i) obj[String()] = Value(depth - 1);
        return obj;
      }
    }
  }

  KdMessage Kd() {
    KdMessage msg;
    msg.obj_key = String();
    const int n = static_cast<int>(rng_.UniformInt(4));
    for (int i = 0; i < n; ++i) {
      if (rng_.UniformInt(3) == 0) {
        msg.attrs.emplace(String(), KdValue::Pointer(String(false), String()));
      } else {
        msg.attrs.emplace(String(), KdValue::Literal(Value(3)));
      }
    }
    return msg;
  }

  ApiObject Object() {
    ApiObject obj;
    obj.kind = String();
    obj.name = String();
    obj.resource_version = rng_.Next();
    obj.metadata = Value(2);
    obj.spec = Value(3);
    obj.status = Value(2);
    return obj;
  }

  WireMessage Message(WireMessage::Type type) {
    WireMessage msg;
    msg.type = type;
    const int n = static_cast<int>(rng_.UniformInt(4));
    switch (type) {
      case WireMessage::Type::kUpsert:
      case WireMessage::Type::kSoftInvalidate:
        msg.message = Kd();
        break;
      case WireMessage::Type::kRemove:
      case WireMessage::Type::kTombstone:
      case WireMessage::Type::kAck:
        msg.key = String();
        break;
      case WireMessage::Type::kStateVersions:
        for (int i = 0; i < n; ++i) msg.versions[String()] = rng_.Next();
        break;
      case WireMessage::Type::kStateRequest:
        for (int i = 0; i < n; ++i) msg.keys.push_back(String());
        break;
      case WireMessage::Type::kStateSnapshot:
        for (int i = 0; i < n; ++i) msg.objects.push_back(Object());
        break;
    }
    return msg;
  }

  WireMessage Message() {
    return Message(static_cast<WireMessage::Type>(rng_.UniformInt(8)));
  }

 private:
  Rng rng_;
};

void ExpectSameWire(const WireMessage& want, const WireMessage& got) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.message, want.message) << want.Serialize();
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.versions, want.versions);
  EXPECT_EQ(got.keys, want.keys);
  EXPECT_EQ(got.objects, want.objects) << want.Serialize();
}

TEST(KdMessageSizeTest, EmptyBatchIsTwoBytes) {
  EXPECT_EQ(SerializedBatchSize({}), SerializeBatch({}).size());
}

TEST(KdMessageSizeTest, EveryTypeMatchesCodecAndRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    WireGen gen(seed);
    for (int t = 0; t < 8; ++t) {
      const WireMessage msg = gen.Message(static_cast<WireMessage::Type>(t));
      const std::string text = msg.Serialize();
      ASSERT_EQ(msg.SerializedSize(), text.size())
          << "seed " << seed << ": " << text;
      const std::vector<WireMessage> batch = {msg};
      ASSERT_EQ(SerializedBatchSize(batch), SerializeBatch(batch).size())
          << "seed " << seed << ": " << text;
      auto parsed = WireMessage::Parse(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << text;
      ExpectSameWire(msg, *parsed);
      if (HasFailure()) return;
    }
  }
}

TEST(KdMessageSizeTest, MixedBatchesMatchCodecAndRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    WireGen gen(seed);
    std::vector<WireMessage> batch;
    const int n = 1 + static_cast<int>(seed % 6);
    for (int i = 0; i < n; ++i) batch.push_back(gen.Message());
    const std::string text = SerializeBatch(batch);
    ASSERT_EQ(SerializedBatchSize(batch), text.size()) << "seed " << seed;
    auto parsed = ParseBatch(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ExpectSameWire(batch[i], (*parsed)[i]);
    }
    if (HasFailure()) return;
  }
}

// Escapes count once per JSON level: a '"' inside a snapshot object is
// \" in the object's text, \\\" in the message's and \\\\\\\" in the
// batch's, so the rule must see the nesting, not just the outer text.
TEST(KdMessageSizeTest, NestedEscapesCountPerLevel) {
  WireMessage snapshot;
  snapshot.type = WireMessage::Type::kStateSnapshot;
  ApiObject obj;
  obj.kind = "Pod";
  obj.name = "q\"uo\\te";
  snapshot.objects.push_back(obj);
  const std::vector<WireMessage> batch = {snapshot};
  EXPECT_EQ(snapshot.SerializedSize(), snapshot.Serialize().size());
  EXPECT_EQ(SerializedBatchSize(batch), SerializeBatch(batch).size());
}

// --- Materialization -----------------------------------------------------

class MaterializeTest : public ::testing::Test {
 protected:
  MaterializeTest() {
    rs_ = Rs("fn-v1", 3);
    cache_.Upsert(rs_);
  }
  runtime::ObjectCache cache_;
  ApiObject rs_;
};

TEST_F(MaterializeTest, PodCreateResolvesTemplatePointer) {
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs_);
  KdMessage msg = PodCreateMessage(pod, rs_.Key());
  auto materialized = Materialize(msg, cache_);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(materialized->kind, model::kKindPod);
  EXPECT_EQ(materialized->name, "fn-v1-0");
  // The materialized pod is byte-identical to the original.
  EXPECT_EQ(materialized->spec, pod.spec);
  EXPECT_EQ(materialized->metadata, pod.metadata);
  EXPECT_EQ(model::GetPodPhase(*materialized), model::PodPhase::kPending);
}

TEST_F(MaterializeTest, PatchesExistingCachedObject) {
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs_);
  cache_.Upsert(pod);
  KdMessage msg;
  msg.obj_key = pod.Key();
  msg.attrs.emplace("spec.nodeName", KdValue::Literal("worker3"));
  auto materialized = Materialize(msg, cache_);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(model::GetNodeName(*materialized), "worker3");
  // Untouched attributes survive the patch.
  EXPECT_EQ(materialized->spec["functionName"].as_string(), "fn");
}

TEST_F(MaterializeTest, DanglingPointerFailsPrecondition) {
  KdMessage msg;
  msg.obj_key = "Pod/orphan";
  msg.attrs.emplace("spec", KdValue::Pointer("ReplicaSet/missing",
                                             "spec.template.spec"));
  auto result = Materialize(msg, cache_);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MaterializeTest, BadPointerPathFails) {
  KdMessage msg;
  msg.obj_key = "Pod/p";
  msg.attrs.emplace("spec",
                    KdValue::Pointer(rs_.Key(), "spec.no.such.path"));
  EXPECT_EQ(Materialize(msg, cache_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(MaterializeTest, MalformedKeysRejected) {
  KdMessage msg;
  msg.obj_key = "no-slash";
  EXPECT_EQ(Materialize(msg, cache_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MaterializeTest, NullLiteralErasesAttr) {
  ApiObject pod = MakePodFromTemplate("p", rs_);
  model::SetNodeName(pod, "w1");
  cache_.Upsert(pod);
  KdMessage msg;
  msg.obj_key = pod.Key();
  msg.attrs.emplace("spec.nodeName", KdValue::Literal(model::Value()));
  auto materialized = Materialize(msg, cache_);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(model::GetNodeName(*materialized), "");
}

TEST_F(MaterializeTest, UnknownSectionRejected) {
  ApiObject obj;
  obj.kind = "Pod";
  obj.name = "p";
  EXPECT_FALSE(ApplyAttr(obj, "bogus.path", model::Value(1)).ok());
  EXPECT_TRUE(ApplyAttr(obj, "status.phase", model::Value("Pending")).ok());
}

TEST_F(MaterializeTest, RoundTripThroughWirePreservesEquality) {
  // Sender: create message; wire: serialize+parse; receiver:
  // materialize. End-to-end transparency check (§3.2).
  ApiObject pod = MakePodFromTemplate("fn-v1-9", rs_);
  model::SetNodeName(pod, "worker2");
  KdMessage create = PodCreateMessage(pod, rs_.Key());
  create.attrs.emplace("spec.nodeName", KdValue::Literal("worker2"));
  WireMessage wire;
  wire.type = WireMessage::Type::kUpsert;
  wire.message = create;
  auto parsed = WireMessage::Parse(wire.Serialize());
  ASSERT_TRUE(parsed.ok());
  auto materialized = Materialize(parsed->message, cache_);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized->spec, pod.spec);
}

}  // namespace
}  // namespace kd::kubedirect
