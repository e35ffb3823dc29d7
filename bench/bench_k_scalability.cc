// Figure 10: K-scalability — upscaling latency for a varying number of
// functions (M = 80 nodes, K = 100..800 Deployments, one pod each) for
// K8s/Kd/K8s+/Kd+, plus the Autoscaler / Deployment controller /
// ReplicaSet controller breakdowns of Figs. 10b-10d. Per-function
// scaling stresses the upper narrow waist: one scale call and one
// ReplicaSet update per function.
#include "harness.h"

namespace kd::bench {
namespace {

using cluster::ClusterConfig;

constexpr int kNodes = 80;
const int kFunctionCounts[] = {100, 200, 400, 800};

void PrintFigure10(const PerManager<UpscaleResult>& r) {
  PrintHeader("Figure 10a: upscaling E2E latency, 1 pod/function, M=80",
              {"functions", "K8s", "Kd", "K8s+", "Kd+", "Kd/K8s",
               "Kd+/K8s+"});
  for (std::size_t i = 0; i < std::size(kFunctionCounts); ++i) {
    const UpscaleResult &k8s = r[kK8s][i], &kd = r[kKd][i],
                        &k8sp = r[kK8sPlus][i], &kdp = r[kKdPlus][i];
    PrintRow({StrFormat("%d", kFunctionCounts[i]), Secs(k8s.e2e), Secs(kd.e2e),
              Secs(k8sp.e2e), Secs(kdp.e2e), Ratio(k8s.e2e, kd.e2e),
              Ratio(k8sp.e2e, kdp.e2e)});
  }

  PrintHeader("Figure 10b: Autoscaler span",
              {"functions", "K8s", "Kd", "speedup"});
  for (std::size_t i = 0; i < std::size(kFunctionCounts); ++i) {
    const UpscaleResult &k8s = r[kK8s][i], &kd = r[kKd][i];
    PrintRow({StrFormat("%d", kFunctionCounts[i]), Secs(k8s.autoscaler),
              Ms(kd.autoscaler), Ratio(k8s.autoscaler, kd.autoscaler)});
  }

  PrintHeader("Figure 10c: Deployment controller span",
              {"functions", "K8s", "Kd", "speedup"});
  for (std::size_t i = 0; i < std::size(kFunctionCounts); ++i) {
    const UpscaleResult &k8s = r[kK8s][i], &kd = r[kKd][i];
    PrintRow({StrFormat("%d", kFunctionCounts[i]), Secs(k8s.deployment),
              Ms(kd.deployment), Ratio(k8s.deployment, kd.deployment)});
  }

  PrintHeader("Figure 10d: ReplicaSet controller span",
              {"functions", "K8s", "Kd", "speedup"});
  for (std::size_t i = 0; i < std::size(kFunctionCounts); ++i) {
    const UpscaleResult &k8s = r[kK8s][i], &kd = r[kKd][i];
    PrintRow({StrFormat("%d", kFunctionCounts[i]), Secs(k8s.replicaset),
              Ms(kd.replicaset), Ratio(k8s.replicaset, kd.replicaset)});
  }
}


// --smoke: many functions x 1 pod at tiny K/M.
int RunSmoke() {
  const UpscaleResult k8s = RunUpscale(ClusterConfig::K8s(8), 8, 8);
  const UpscaleResult kd = RunUpscale(ClusterConfig::Kd(8), 8, 8);
  return SmokeVerdict(k8s.converged && kd.converged,
                      "k-scalability (K8s + Kd fan-out)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  PerManager<UpscaleResult> results;
  for (int m = 0; m < kNumManagers; ++m) {
    for (int functions : kFunctionCounts) {  // one pod per function
      results[m].push_back(
          RunUpscale(Variant(Manager(m), kNodes), functions, functions));
    }
  }
  PrintFigure10(results);
  return 0;
}
