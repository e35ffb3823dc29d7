// Figure 11: M-scalability — KubeDirect on large emulated clusters
// (M = 500..16000 nodes, 5 pods per node, so up to 80K pods). Like the
// paper, the sandbox managers are "fake" (the latency model stands in
// for container creation) but the pods ARE exposed through the
// Kubernetes API, which is what loads the API server at this scale.
//
// Memory note: this bench uses the minimal pod template; the Kd-side
// messages are equally small either way, and the dominant effects
// (scheduler node scan, ~20K concurrent publish calls) are
// template-independent. Peak RSS still grows about 3.7x per doubling
// of M (4.3 GB at M=4000), so the points past the paper's M=4000 run
// out of memory on a 15 GB host (ROADMAP item 1).
#include "harness.h"

namespace kd::bench {
namespace {

using cluster::ClusterConfig;

const int kNodeCounts[] = {500, 1000, 2000, 4000, 8000, 16000};
constexpr int kPodsPerNode = 5;

struct Row {
  int nodes;
  UpscaleResult result;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

void BM_MScale(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  ClusterConfig config = ClusterConfig::Kd(nodes);
  config.realistic_pod_template = false;
  UpscaleResult result;
  for (auto _ : state) {
    result = RunUpscale(std::move(config), /*functions=*/1,
                        /*total_pods=*/nodes * kPodsPerNode, Minutes(60));
  }
  state.counters["e2e_s"] = ToSeconds(result.e2e);
  state.counters["scheduler_s"] = ToSeconds(result.scheduler);
  state.counters["sandbox_s"] = ToSeconds(result.sandbox);
  state.counters["converged"] = result.converged ? 1 : 0;
  Rows().push_back(Row{nodes, result});
}

BENCHMARK(BM_MScale)
    ->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000)->Arg(8000)->Arg(16000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void PrintFigure11() {
  PrintHeader(
      "Figure 11: Kd upscaling latency, 5 pods/node (headline: 20K pods "
      "in ~30s at M=4000)",
      {"nodes", "pods", "E2E", "scheduler", "sandbox", "replicaset"});
  for (const Row& row : Rows()) {
    PrintRow({StrFormat("%d", row.nodes),
              StrFormat("%d", row.nodes * kPodsPerNode), Secs(row.result.e2e),
              Secs(row.result.scheduler), Secs(row.result.sandbox),
              Secs(row.result.replicaset)});
  }
}


// --smoke: the Fig. 11 shape at M=40.
int RunSmoke() {
  ClusterConfig config = ClusterConfig::Kd(40);
  config.realistic_pod_template = false;
  const UpscaleResult result =
      RunUpscale(std::move(config), 1, 40 * kPodsPerNode, Minutes(60));
  return SmokeVerdict(result.converged, "m-scalability (Kd M=40)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  if (kd::bench::ConsumeSmokeFlag(argc, argv)) return kd::bench::RunSmoke();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  kd::bench::PrintFigure11();
  return 0;
}
