// Reference-codec audit over the golden walks.
//
// KdLink hands each batch to the network as the sender's own
// vector<WireMessage>, charged at SerializedBatchSize() — a count
// summed from memoized Value sizes, never produced. The JSON codec
// (SerializeBatch/ParseBatch) no longer runs on the wire; it stays as
// the reference this test holds the hand-off to, the way
// placement_test keeps the brute-force node scan. Under a send
// observer, the five golden walks of determinism_test.cc (kd-cluster,
// faas-replay and the three pinned crash points) check every Kd batch
// they send:
//   - the declared byte count equals SerializeBatch(batch).size();
//   - ParseBatch(SerializeBatch(batch)) reproduces the handed-over
//     batch on every WireMessage field, with Values compared by type
//     as well as content — so no sender hands over anything the wire
//     would have dropped or changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crashpoint/scenario.h"
#include "golden_walks.h"
#include "kubedirect/message.h"
#include "model/objects.h"
#include "net/network.h"

namespace kd {
namespace {

using kubedirect::KdMessage;
using kubedirect::WireMessage;
using model::Value;

// Structural equality that also requires equal types all the way down
// (Value::operator== calls 5 and 5.0 equal; the wire would not keep
// them apart, and neither may the hand-off).
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Value::Type::kNull:
      return true;
    case Value::Type::kBool:
      return a.as_bool() == b.as_bool();
    case Value::Type::kInt:
      return a.as_int() == b.as_int();
    case Value::Type::kDouble:
      return a.as_double() == b.as_double();
    case Value::Type::kString:
      return a.as_string() == b.as_string();
    case Value::Type::kArray:
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (!SameValue(a.at(i), b.at(i))) return false;
      }
      return true;
    case Value::Type::kObject: {
      if (a.size() != b.size()) return false;
      auto it = b.object().begin();
      for (const auto& [key, value] : a.object()) {
        if (key != it->first || !SameValue(value, it->second)) return false;
        ++it;
      }
      return true;
    }
  }
  return false;
}

bool SameKdMessage(const KdMessage& a, const KdMessage& b) {
  if (a.obj_key != b.obj_key || a.attrs.size() != b.attrs.size()) {
    return false;
  }
  auto it = b.attrs.begin();
  for (const auto& [path, value] : a.attrs) {
    const auto& [other_path, other] = *it++;
    if (path != other_path || value.is_pointer() != other.is_pointer()) {
      return false;
    }
    if (value.is_pointer() ? !(value.pointer() == other.pointer())
                           : !SameValue(value.literal(), other.literal())) {
      return false;
    }
  }
  return true;
}

bool SameObjects(const std::vector<model::ApiObject>& a,
                 const std::vector<model::ApiObject>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].name != b[i].name ||
        a[i].resource_version != b[i].resource_version ||
        !SameValue(a[i].metadata, b[i].metadata) ||
        !SameValue(a[i].spec, b[i].spec) ||
        !SameValue(a[i].status, b[i].status)) {
      return false;
    }
  }
  return true;
}

class CodecAudit {
 public:
  net::Network::SendObserver Observer() {
    return [this](const net::Payload& payload) { Check(payload); };
  }

  int batches() const { return batches_; }
  int messages() const { return messages_; }

 private:
  void Check(const net::Payload& payload) {
    std::shared_ptr<const std::vector<WireMessage>> batch =
        payload.body<std::vector<WireMessage>>();
    if (batch == nullptr) return;  // the kubelet direct stream's text
    ++batches_;
    messages_ += static_cast<int>(batch->size());
    // One report is enough; later batches would only repeat it.
    if (::testing::Test::HasFailure()) return;
    const std::string text = kubedirect::SerializeBatch(*batch);
    EXPECT_EQ(payload.bytes(), text.size()) << "batch " << batches_;
    StatusOr<std::vector<WireMessage>> parsed = kubedirect::ParseBatch(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), batch->size());
    for (std::size_t i = 0; i < batch->size(); ++i) {
      const WireMessage& sent = (*batch)[i];
      const WireMessage& wire = (*parsed)[i];
      EXPECT_TRUE(sent.type == wire.type &&
                  SameKdMessage(sent.message, wire.message) &&
                  sent.key == wire.key && sent.versions == wire.versions &&
                  sent.keys == wire.keys &&
                  SameObjects(sent.objects, wire.objects))
          << "batch " << batches_ << " message " << i << " ("
          << kubedirect::WireMessageTypeName(sent.type)
          << ") differs after the codec round trip:\n  sent "
          << sent.Serialize() << "\n  wire " << wire.Serialize();
      if (::testing::Test::HasFailure()) return;
    }
  }

  int batches_ = 0;
  int messages_ = 0;
};

TEST(CodecAuditTest, KdClusterBatchesMatchReferenceCodec) {
  CodecAudit audit;
  golden::KdClusterTrace(audit.Observer());
  EXPECT_GT(audit.batches(), 100);
  std::printf("[audit] kd-cluster: %d batches, %d messages\n",
              audit.batches(), audit.messages());
}

TEST(CodecAuditTest, FaasReplayBatchesMatchReferenceCodec) {
  CodecAudit audit;
  golden::FaasReplayTrace(audit.Observer());
  EXPECT_GT(audit.batches(), 100);
  std::printf("[audit] faas-replay: %d batches, %d messages\n",
              audit.batches(), audit.messages());
}

class CrashPointCodecAuditTest
    : public ::testing::TestWithParam<
          std::pair<crashpoint::Victim, std::uint64_t>> {};

TEST_P(CrashPointCodecAuditTest, BatchesMatchReferenceCodec) {
  const auto& [victim, index] = GetParam();
  CodecAudit audit;
  crashpoint::RunScenario(victim, index, nullptr, audit.Observer());
  EXPECT_GT(audit.batches(), 10);
  std::printf("[audit] crashpoint %s@%llu: %d batches, %d messages\n",
              crashpoint::VictimName(victim),
              static_cast<unsigned long long>(index), audit.batches(),
              audit.messages());
}

// The crash points pinned in determinism_test.cc.
INSTANTIATE_TEST_SUITE_P(
    Points, CrashPointCodecAuditTest,
    ::testing::Values(
        std::make_pair(crashpoint::Victim::kEtcdPersist, std::uint64_t{4}),
        std::make_pair(crashpoint::Victim::kSchedulerHandshake,
                       std::uint64_t{3}),
        std::make_pair(crashpoint::Victim::kReplicaSetTombstone,
                       std::uint64_t{1})));

}  // namespace
}  // namespace kd
