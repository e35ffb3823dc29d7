// Unit tests for the API object model: factories, typed accessors,
// lifecycle rules, serialization sizes.
#include <gtest/gtest.h>

#include "model/objects.h"

namespace kd::model {
namespace {

TEST(PodPhaseTest, NamesRoundTrip) {
  for (PodPhase p :
       {PodPhase::kPending, PodPhase::kRunning, PodPhase::kTerminating}) {
    ApiObject pod;
    SetPodPhase(pod, p);
    EXPECT_EQ(pod.status["phase"].as_string(), PodPhaseName(p));
    EXPECT_EQ(GetPodPhase(pod), p);
  }
  ApiObject absent;
  EXPECT_EQ(GetPodPhase(absent), PodPhase::kPending);
  ApiObject unknown;
  unknown.status["phase"] = "Bogus";
  EXPECT_EQ(GetPodPhase(unknown), PodPhase::kPending);
}

TEST(ApiObjectTest, KeyCombinesKindAndName) {
  ApiObject obj;
  obj.kind = kKindPod;
  obj.name = "pod-1";
  EXPECT_EQ(obj.Key(), "Pod/pod-1");
  EXPECT_EQ(ApiObject::MakeKey(kKindPod, "pod-1"), "Pod/pod-1");
}

TEST(ApiObjectTest, SerializeParseRoundTrip) {
  ApiObject obj = MakeDeployment("fn", 3, MinimalPodTemplateSpec("fn"));
  obj.resource_version = 17;
  SetAnnotation(obj, "note", "hello");
  auto parsed = ApiObject::Parse(obj.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, obj);
}

TEST(ApiObjectTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ApiObject::Parse("not json").ok());
  EXPECT_FALSE(ApiObject::Parse("{\"no\":\"kind\"}").ok());
  EXPECT_FALSE(ApiObject::Parse("[1,2]").ok());
}

TEST(ApiObjectTest, ContentHashIgnoresResourceVersion) {
  ApiObject a = MakeNode("n1", 10000, 65536);
  ApiObject b = a;
  b.resource_version = 999;
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  SetNodeInvalid(b, true);
  EXPECT_NE(a.ContentHash(), b.ContentHash());
}

TEST(MetadataTest, LabelsAndAnnotations) {
  ApiObject obj;
  obj.kind = kKindPod;
  obj.name = "p";
  SetLabel(obj, "app", "fn");
  SetAnnotation(obj, "x", "y");
  EXPECT_EQ(GetLabel(obj, "app"), "fn");
  EXPECT_EQ(GetAnnotation(obj, "x"), "y");
  EXPECT_EQ(GetLabel(obj, "missing"), "");
}

TEST(MetadataTest, KubeDirectAnnotation) {
  ApiObject obj = MakeDeployment("fn", 1, MinimalPodTemplateSpec("fn"));
  EXPECT_FALSE(IsKubeDirectManaged(obj));
  SetKubeDirectManaged(obj, true);
  EXPECT_TRUE(IsKubeDirectManaged(obj));
  SetKubeDirectManaged(obj, false);
  EXPECT_FALSE(IsKubeDirectManaged(obj));
}

TEST(MetadataTest, OwnerReference) {
  ApiObject obj;
  obj.kind = kKindPod;
  obj.name = "p";
  SetOwner(obj, kKindReplicaSet, "rs-1");
  EXPECT_EQ(GetOwnerKind(obj), "ReplicaSet");
  EXPECT_EQ(GetOwnerName(obj), "rs-1");
}

TEST(AccessorTest, Replicas) {
  ApiObject d = MakeDeployment("fn", 5, MinimalPodTemplateSpec("fn"));
  EXPECT_EQ(GetReplicas(d), 5);
  SetReplicas(d, 9);
  EXPECT_EQ(GetReplicas(d), 9);
  SetReadyReplicas(d, 4);
  EXPECT_EQ(GetReadyReplicas(d), 4);
}

TEST(AccessorTest, NodeNameAndIp) {
  ApiObject rs = MakeReplicaSet("rs", "fn", 1, 1, MinimalPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("p-1", rs);
  EXPECT_EQ(GetNodeName(pod), "");
  SetNodeName(pod, "worker1");
  EXPECT_EQ(GetNodeName(pod), "worker1");
  SetPodIp(pod, "10.1.2.3");
  EXPECT_EQ(GetPodIp(pod), "10.1.2.3");
}

TEST(LifecycleTest, NewPodIsPending) {
  ApiObject rs = MakeReplicaSet("rs", "fn", 1, 1, MinimalPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("p-1", rs);
  EXPECT_EQ(GetPodPhase(pod), PodPhase::kPending);
  EXPECT_FALSE(IsTerminating(pod));
}

TEST(LifecycleTest, PendingToRunningToTerminating) {
  ApiObject rs = MakeReplicaSet("rs", "fn", 1, 1, MinimalPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("p-1", rs);
  SetPodPhase(pod, PodPhase::kRunning);
  EXPECT_EQ(GetPodPhase(pod), PodPhase::kRunning);
  MarkTerminating(pod);
  EXPECT_TRUE(IsTerminating(pod));
}

TEST(LifecycleTest, TerminatingIsIrreversible) {
  ApiObject rs = MakeReplicaSet("rs", "fn", 1, 1, MinimalPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("p-1", rs);
  MarkTerminating(pod);
  EXPECT_DEATH(SetPodPhase(pod, PodPhase::kRunning), "irreversible");
}

TEST(AccessorTest, ResourcesOnPodsAndNodes) {
  ApiObject node = MakeNode("n1", 10000, 65536);
  EXPECT_EQ(GetCpuMilli(node), 10000);
  EXPECT_EQ(GetMemoryMb(node), 65536);
  ApiObject rs = MakeReplicaSet("rs", "fn", 1, 1, MinimalPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("p-1", rs);
  EXPECT_EQ(GetCpuMilli(pod), 250);
  SetCpuMilli(pod, 500);
  EXPECT_EQ(GetCpuMilli(pod), 500);
}

TEST(AccessorTest, NodeInvalidFlag) {
  ApiObject node = MakeNode("n1", 10000, 65536);
  EXPECT_FALSE(IsNodeInvalid(node));
  SetNodeInvalid(node, true);
  EXPECT_TRUE(IsNodeInvalid(node));
}

TEST(FactoryTest, DeploymentCarriesTemplate) {
  ApiObject d = MakeDeployment("fn", 2, MinimalPodTemplateSpec("fn"));
  const Value* tmpl = d.spec.FindPath("template.spec");
  ASSERT_NE(tmpl, nullptr);
  EXPECT_EQ((*tmpl)["functionName"].as_string(), "fn");
  EXPECT_EQ(GetRevision(d), 1);
}

TEST(FactoryTest, ReplicaSetOwnedByDeployment) {
  ApiObject rs = MakeReplicaSet("fn-v2", "fn", 2, 4,
                                MinimalPodTemplateSpec("fn"));
  EXPECT_EQ(GetOwnerName(rs), "fn");
  EXPECT_EQ(GetOwnerKind(rs), "Deployment");
  EXPECT_EQ(GetRevision(rs), 2);
  EXPECT_EQ(GetReplicas(rs), 4);
}

TEST(FactoryTest, PodCopiesTemplateFromReplicaSet) {
  ApiObject rs = MakeReplicaSet("fn-v1", "fn", 1, 1,
                                MinimalPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("fn-v1-abc", rs);
  EXPECT_EQ(pod.kind, kKindPod);
  EXPECT_EQ(GetOwnerName(pod), "fn-v1");
  EXPECT_EQ(pod.spec["functionName"].as_string(), "fn");
  EXPECT_EQ(pod.spec["containers"].size(), 1u);
}

TEST(FactoryTest, EndpointsListAddresses) {
  ApiObject ep = MakeEndpoints("svc", {"10.0.0.1:8080", "10.0.0.2:8080"});
  EXPECT_EQ(ep.kind, kKindEndpoints);
  ASSERT_EQ(ep.spec["addresses"].size(), 2u);
  EXPECT_EQ(ep.spec["addresses"].at(1).as_string(), "10.0.0.2:8080");
}

// The paper (citing Dirigent) reports an average of ~17 KB per API
// object in production; our padded template must land in that band so
// the serialization/bandwidth costs of full-object message passing are
// realistic (Fig. 14 ablation depends on this).
TEST(FactoryTest, RealisticPodSerializesToTensOfKilobytes) {
  ApiObject rs = MakeReplicaSet("fn-v1", "fn", 1, 1,
                                RealisticPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs);
  const std::size_t size = pod.SerializedSize();
  EXPECT_GE(size, 10'000u) << "pod too small to be realistic";
  EXPECT_LE(size, 25'000u) << "pod implausibly large";
}

TEST(FactoryTest, MinimalTemplateIsSmall) {
  ApiObject rs = MakeReplicaSet("fn-v1", "fn", 1, 1,
                                MinimalPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs);
  EXPECT_LT(pod.SerializedSize(), 1000u);
}


// --- CoW + cached SerializedSize on full API objects --------------------

TEST(CowObjectTest, MutationAfterShareDoesNotAlias) {
  ApiObject rs = MakeReplicaSet("fn-v1", "fn", 1, 2,
                                RealisticPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs);
  ApiObject copy = pod;  // watcher/cache copy: O(1), shared payloads
  SetPodPhase(copy, PodPhase::kRunning);
  SetNodeName(copy, "node-7");
  SetAnnotation(copy, "touched", "yes");
  // The original is untouched by the writer's mutations.
  EXPECT_EQ(GetPodPhase(pod), PodPhase::kPending);
  EXPECT_EQ(GetNodeName(pod), "");
  EXPECT_EQ(GetAnnotation(pod, "touched"), "");
  EXPECT_EQ(GetPodPhase(copy), PodPhase::kRunning);
  EXPECT_EQ(GetNodeName(copy), "node-7");
}

TEST(CowObjectTest, SerializedSizeCacheInvalidatesOnEveryMutator) {
  ApiObject rs = MakeReplicaSet("fn-v1", "fn", 1, 2,
                                RealisticPodTemplateSpec("fn"));
  EXPECT_EQ(rs.SerializedSize(), rs.Serialize().size());
  SetReplicas(rs, 17);
  EXPECT_EQ(rs.SerializedSize(), rs.Serialize().size());

  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs);
  EXPECT_EQ(pod.SerializedSize(), pod.Serialize().size());
  // Running -> Terminating changes the phase string length.
  SetPodPhase(pod, PodPhase::kRunning);
  EXPECT_EQ(pod.SerializedSize(), pod.Serialize().size());
  SetPodPhase(pod, PodPhase::kTerminating);
  EXPECT_EQ(pod.SerializedSize(), pod.Serialize().size());
  SetAnnotation(pod, "kubedirect.io/epoch", "12345");
  EXPECT_EQ(pod.SerializedSize(), pod.Serialize().size());
  // resource_version lives outside the Value trees; it is summed
  // per-call, so bumping it must be reflected immediately.
  pod.resource_version = 1'000'000;
  EXPECT_EQ(pod.SerializedSize(), pod.Serialize().size());
}

TEST(CowObjectTest, SizeCacheSurvivesSharingAndDetach) {
  ApiObject rs = MakeReplicaSet("fn-v1", "fn", 1, 2,
                                RealisticPodTemplateSpec("fn"));
  ApiObject pod = MakePodFromTemplate("fn-v1-0", rs);
  const std::size_t before = pod.SerializedSize();
  ApiObject copy = pod;
  SetAnnotation(copy, "extra", "payload");
  EXPECT_EQ(pod.SerializedSize(), before);  // reader sees the old size
  EXPECT_EQ(copy.SerializedSize(), copy.Serialize().size());
  EXPECT_GT(copy.SerializedSize(), before);
}

TEST(CowObjectTest, EqualityComparesByValueNotByPayloadIdentity) {
  ApiObject rs = MakeReplicaSet("fn-v1", "fn", 1, 2,
                                MinimalPodTemplateSpec("fn"));
  ApiObject a = MakePodFromTemplate("fn-v1-0", rs);
  ApiObject b = a;
  EXPECT_EQ(a, b);  // shared payloads
  SetAnnotation(b, "k", "v");
  EXPECT_FALSE(a == b);
  SetAnnotation(b, "k", "v");  // rewrite same value: detached but equal?
  // b still differs from a (the annotation exists only on b).
  EXPECT_FALSE(a == b);
  SetAnnotation(a, "k", "v");  // now independently-built equal content
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace kd::model
