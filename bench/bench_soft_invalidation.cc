// §6.3 "Soft invalidation": the latency of one backward hop, and the
// end-to-end latency of synchronous termination (preemption), which
// blocks on the downstream invalidation signal. Paper numbers: one hop
// 0.5-1.2 ms; preemption (two hops + Kubelet processing) 6.2-13.4 ms;
// a standard API call 10-35 ms.
#include "harness.h"
#include "kubedirect/hierarchy.h"

namespace kd::bench {
namespace {

using cluster::ClusterConfig;

// --- one hop of soft invalidation on a raw hierarchy pair -------------

Duration MeasureOneHop() {
  sim::Engine engine;
  net::Network network(engine);
  CostModel cost = CostModel::Default();
  net::Endpoint up(network, "up"), down(network, "down");
  runtime::ObjectCache up_cache, down_cache;

  model::ApiObject pod;
  pod.kind = model::kKindPod;
  pod.name = "p";
  model::SetPodPhase(pod, model::PodPhase::kPending);
  up_cache.Upsert(pod);
  down_cache.Upsert(pod);

  kubedirect::HierarchyServer server(engine, cost, down, down_cache,
                                     model::kKindPod, {});
  server.Start();
  Time merged_at = -1;
  kubedirect::HierarchyClient::Callbacks callbacks;
  callbacks.on_soft_invalidate =
      [&](const kubedirect::KdMessage&) { merged_at = engine.now(); };
  kubedirect::HierarchyClient client(engine, cost, up, "down", up_cache,
                                     model::kKindPod, nullptr,
                                     std::move(callbacks));
  client.Start();
  engine.Run();

  const Time start = engine.now();
  kubedirect::KdMessage delta;
  delta.obj_key = "Pod/p";
  delta.attrs.emplace("spec.nodeName", kubedirect::KdValue::Literal("n1"));
  server.SendSoftInvalidate(delta);
  engine.Run();
  client.Stop();
  return merged_at - start;
}

// --- preemption on the full cluster ------------------------------------

struct PreemptResult {
  Duration preempt = -1;
  Duration api_call = -1;
};

PreemptResult MeasurePreemption() {
  sim::Engine engine;
  ClusterConfig config = ClusterConfig::Kd(8);
  cluster::Cluster cluster(engine, std::move(config));
  cluster.Boot();
  cluster.RegisterFunction("fn");
  engine.RunFor(Milliseconds(200));
  cluster.ScaleTo("fn", 16);
  if (!cluster.RunUntil(
          [&] { return cluster.TotalReadyPods() == 16; }, Minutes(5))) {
    return {};
  }
  std::string victim;
  for (const model::ApiObject* pod :
       cluster.apiserver().PeekAll(model::kKindPod)) {
    victim = pod->Key();
    break;
  }

  PreemptResult result;
  const Time start = engine.now();
  Time done_at = -1;
  cluster.scheduler().Preempt(victim, [&](Status s) {
    if (s.ok()) done_at = engine.now();
  });
  cluster.RunUntil([&] { return done_at >= 0; }, Minutes(1));
  result.preempt = done_at >= 0 ? done_at - start : -1;

  // Reference: a standard API call (update of a guard-free object).
  apiserver::ApiClient probe(engine, cluster.apiserver(), "probe", 1e6, 1e6);
  const model::ApiObject* node =
      cluster.apiserver().Peek(model::kKindNode, cluster::Cluster::NodeName(0));
  model::ApiObject update = *node;
  const Time api_start = engine.now();
  Time api_done = -1;
  probe.Update(update, [&](StatusOr<model::ApiObject> r) {
    if (r.ok()) api_done = engine.now();
  });
  cluster.RunUntil([&] { return api_done >= 0; }, Minutes(1));
  result.api_call = api_done >= 0 ? api_done - api_start : -1;
  return result;
}

void PrintTable(Duration hop, const PreemptResult& preemption) {
  PrintHeader(
      "Soft invalidation (§6.3) — paper: hop 0.5-1.2ms, preemption "
      "6.2-13.4ms, API call 10-35ms",
      {"metric", "measured"});
  PrintRow({"soft-invalidation hop", Ms(hop)});
  PrintRow({"sync preemption E2E", Ms(preemption.preempt)});
  PrintRow({"standard API call", Ms(preemption.api_call)});
}


// --smoke: the full table, which is already tiny.
int RunSmoke() {
  const Duration hop = MeasureOneHop();
  const PreemptResult preemption = MeasurePreemption();
  return SmokeVerdict(hop >= 0 && preemption.preempt >= 0 &&
                          preemption.api_call >= 0,
                      "soft invalidation (hop + preemption)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  const kd::Duration hop = MeasureOneHop();
  PrintTable(hop, MeasurePreemption());
  return 0;
}
