// Figure 12: end-to-end FaaS workload on the Knative variants —
// Kn/K8s vs Kn/Kd on the 30-minute Azure-like trace (§6.2). Also
// reports the §6.2 cold-start-count reduction (the paper observes 67%
// fewer cold starts with Kd because faster upscaling stops the
// autoscaler from panic-scaling).
#include "e2e_common.h"

namespace kd::bench {
namespace {

trace::TraceConfig TraceSetup() {
  trace::TraceConfig config;
  config.num_functions = 500;
  config.length = Minutes(30);
  config.target_invocations = 168'000;
  // Correlated cold bursts big enough to exceed the control plane's
  // rate budget (the long-tail mechanism the paper identifies).
  config.burst_function_fraction = 0.12;
  config.burst_invocations_per_function = 2;
  return config;
}

// The variants in the order they run and print; the headline compares
// the first with the second.
const char* const kVariants[] = {"Kn/K8s", "Kn/Kd"};

using Results = std::vector<std::pair<std::string, E2eResult>>;

void PrintFigure12(const Results& results) {
  PrintE2eRows("Figure 12: Knative variants, 30-min Azure-like trace",
               results);
  const E2eResult& k8s = results[0].second;
  const E2eResult& kd = results[1].second;
  std::printf(
      "\nHeadlines (paper: slowdown p50 3.5x / p99 19.4x; scheduling "
      "latency p50 26.7x / p99 10.3x; 67%% fewer cold starts):\n");
  std::printf("  slowdown improvement        p50 %.1fx  p99 %.1fx\n",
              k8s.report.slowdown.Median() / kd.report.slowdown.Median(),
              k8s.report.slowdown.P99() / kd.report.slowdown.P99());
  std::printf("  sched-latency improvement   p50 %.1fx  p99 %.1fx\n",
              k8s.report.scheduling_latency_ms.Median() /
                  kd.report.scheduling_latency_ms.Median(),
              k8s.report.scheduling_latency_ms.P99() /
                  kd.report.scheduling_latency_ms.P99());
  std::printf("  cold-start (instance) reduction: %.0f%%  (%lld -> %lld)\n",
              100.0 * (1.0 - static_cast<double>(kd.pods_created) /
                                 static_cast<double>(k8s.pods_created)),
              static_cast<long long>(k8s.pods_created),
              static_cast<long long>(kd.pods_created));
}


// --smoke: a 30-second clip on the Kn/Kd stack at tiny scale.
int RunSmoke() {
  E2eConfig config;
  config.variant = "Kn/Kd";
  config.num_nodes = 8;
  config.trace.num_functions = 5;
  config.trace.length = Seconds(30);
  config.trace.target_invocations = 60;
  const E2eResult result = RunE2eWorkload(config);
  return SmokeVerdict(result.report.total_requests > 0 &&
                          result.report.completed_requests > 0,
                      "e2e knative (Kn/Kd clip)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  Results results;
  for (const char* variant : kVariants) {
    E2eConfig config;
    config.variant = variant;
    config.trace = TraceSetup();
    results.emplace_back(variant, RunE2eWorkload(config));
  }
  PrintFigure12(results);
  return 0;
}
