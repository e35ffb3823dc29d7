// Figure 9: N-scalability — upscaling latency for a varying number of
// pods (K = 1 function, M = 80 nodes, N = 100..800 pods) across the
// four cluster managers of Fig. 8a (K8s, Kd, K8s+, Kd+), plus the
// per-stage breakdowns of Figs. 9b-9d (ReplicaSet controller,
// Scheduler, sandbox manager).
#include "harness.h"

namespace kd::bench {
namespace {

using cluster::ClusterConfig;

constexpr int kNodes = 80;
const int kPodCounts[] = {100, 200, 400, 800};

void PrintFigure9(const PerManager<UpscaleResult>& r) {
  PrintHeader("Figure 9a: upscaling E2E latency, K=1, M=80",
              {"pods", "K8s", "Kd", "K8s+", "Kd+", "Kd/K8s", "Kd+/K8s+"});
  for (std::size_t i = 0; i < std::size(kPodCounts); ++i) {
    const UpscaleResult &k8s = r[kK8s][i], &kd = r[kKd][i],
                        &k8sp = r[kK8sPlus][i], &kdp = r[kKdPlus][i];
    PrintRow({StrFormat("%d", kPodCounts[i]), Secs(k8s.e2e), Secs(kd.e2e),
              Secs(k8sp.e2e), Secs(kdp.e2e), Ratio(k8s.e2e, kd.e2e),
              Ratio(k8sp.e2e, kdp.e2e)});
  }

  PrintHeader("Figure 9b: ReplicaSet controller span",
              {"pods", "K8s", "Kd", "speedup"});
  for (std::size_t i = 0; i < std::size(kPodCounts); ++i) {
    const UpscaleResult &k8s = r[kK8s][i], &kd = r[kKd][i];
    PrintRow({StrFormat("%d", kPodCounts[i]), Secs(k8s.replicaset),
              Ms(kd.replicaset), Ratio(k8s.replicaset, kd.replicaset)});
  }

  PrintHeader("Figure 9c: Scheduler span", {"pods", "K8s", "Kd", "speedup"});
  for (std::size_t i = 0; i < std::size(kPodCounts); ++i) {
    const UpscaleResult &k8s = r[kK8s][i], &kd = r[kKd][i];
    PrintRow({StrFormat("%d", kPodCounts[i]), Secs(k8s.scheduler),
              Ms(kd.scheduler), Ratio(k8s.scheduler, kd.scheduler)});
  }

  PrintHeader("Figure 9d: sandbox manager span",
              {"pods", "stock(K8s)", "Dirigent's(K8s+)", "stock(Kd)",
               "Dirigent's(Kd+)"});
  for (std::size_t i = 0; i < std::size(kPodCounts); ++i) {
    PrintRow({StrFormat("%d", kPodCounts[i]), Secs(r[kK8s][i].sandbox),
              Secs(r[kK8sPlus][i].sandbox), Secs(r[kKd][i].sandbox),
              Secs(r[kKdPlus][i].sandbox)});
  }
}


// --smoke: one K8s and one Kd point at tiny N/M.
int RunSmoke() {
  const UpscaleResult k8s = RunUpscale(ClusterConfig::K8s(8), 1, 16);
  const UpscaleResult kd = RunUpscale(ClusterConfig::Kd(8), 1, 16);
  return SmokeVerdict(k8s.converged && kd.converged,
                      "n-scalability (K8s + Kd upscale)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  PerManager<UpscaleResult> results;
  for (int m = 0; m < kNumManagers; ++m) {
    for (int pods : kPodCounts) {
      results[m].push_back(
          RunUpscale(Variant(Manager(m), kNodes), /*functions=*/1, pods));
    }
  }
  PrintFigure9(results);
  return 0;
}
