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
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  // Each row prints as soon as its size finishes, so the sizes that fit
  // the host are on stdout before a larger one runs out of memory.
  PrintHeader(
      "Figure 11: Kd upscaling latency, 5 pods/node (headline: 20K pods "
      "in ~30s at M=4000)",
      {"nodes", "pods", "E2E", "scheduler", "sandbox", "replicaset"});
  std::fflush(stdout);
  for (int nodes : kNodeCounts) {
    ClusterConfig config = ClusterConfig::Kd(nodes);
    config.realistic_pod_template = false;
    const UpscaleResult result =
        RunUpscale(std::move(config), /*functions=*/1,
                   /*total_pods=*/nodes * kPodsPerNode, kd::Minutes(60));
    PrintRow({kd::StrFormat("%d", nodes),
              kd::StrFormat("%d", nodes * kPodsPerNode), Secs(result.e2e),
              Secs(result.scheduler), Secs(result.sandbox),
              Secs(result.replicaset)});
    std::fflush(stdout);
  }
  return 0;
}
