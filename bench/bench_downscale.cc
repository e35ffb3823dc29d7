// §6.1 "Downscaling": K-scalability of scale-down (100..800 functions,
// one pod each, scaled to zero). The paper reports Kd 6.9-30.3x faster
// than K8s and Kd+ 16.8-45.2x faster than K8s+ — the message/API-call
// count mirrors upscaling (K8s issues one Delete per pod; Kd replicates
// one tombstone per pod).
#include "harness.h"

namespace kd::bench {
namespace {

using cluster::ClusterConfig;

constexpr int kNodes = 80;
const int kFunctionCounts[] = {100, 200, 400, 800};

void PrintTable(const PerManager<Duration>& r) {
  PrintHeader(
      "Downscaling (§6.1): K functions x 1 pod scaled to zero, M=80 "
      "(paper: Kd 6.9-30.3x, Kd+ 16.8-45.2x)",
      {"functions", "K8s", "Kd", "K8s+", "Kd+", "Kd/K8s", "Kd+/K8s+"});
  for (std::size_t i = 0; i < std::size(kFunctionCounts); ++i) {
    const Duration k8s = r[kK8s][i], kd = r[kKd][i], k8sp = r[kK8sPlus][i],
                   kdp = r[kKdPlus][i];
    PrintRow({StrFormat("%d", kFunctionCounts[i]), Secs(k8s), Secs(kd),
              Secs(k8sp), Secs(kdp), Ratio(k8s, kd), Ratio(k8sp, kdp)});
  }
}


// --smoke: scale-to-zero round trip on two variants.
int RunSmoke() {
  const Duration k8s = RunDownscale(ClusterConfig::K8s(8), 2, 1, 0);
  const Duration kd = RunDownscale(ClusterConfig::Kd(8), 2, 1, 0);
  return SmokeVerdict(k8s >= 0 && kd >= 0, "downscale (K8s + Kd)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  PerManager<kd::Duration> results;
  for (int m = 0; m < kNumManagers; ++m) {
    for (int functions : kFunctionCounts) {  // one pod each, to zero
      results[m].push_back(
          RunDownscale(Variant(Manager(m), kNodes), functions, 1, 0));
    }
  }
  PrintTable(results);
  return 0;
}
