// Figure 13: end-to-end FaaS workload on the Dirigent variants —
// Dr/K8s+ vs Dr/Kd+ vs clean-slate Dirigent on the 30-minute
// Azure-like trace (§6.2). The claim under test: Dr/Kd+ approaches
// Dirigent while staying Kubernetes-compatible.
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
// the first with the second, and the second with the third.
const char* const kVariants[] = {"Dr/K8s+", "Dr/Kd+", "Dirigent"};

using Results = std::vector<std::pair<std::string, E2eResult>>;

void PrintFigure13(const Results& results) {
  PrintE2eRows("Figure 13: Dirigent variants, 30-min Azure-like trace",
               results);
  const E2eResult& k8sp = results[0].second;
  const E2eResult& kdp = results[1].second;
  const E2eResult& dirigent = results[2].second;
  std::printf(
      "\nHeadlines (paper: Dr/Kd+ improves Dr/K8s+ slowdown p50 2.0x / "
      "p99 10.4x, scheduling latency p50 6.6x / p99 134x, and matches "
      "Dirigent):\n");
  std::printf("  slowdown improvement       p50 %.1fx  p99 %.1fx\n",
              k8sp.report.slowdown.Median() / kdp.report.slowdown.Median(),
              k8sp.report.slowdown.P99() / kdp.report.slowdown.P99());
  std::printf("  sched-latency improvement  p50 %.1fx  p99 %.1fx\n",
              k8sp.report.scheduling_latency_ms.Median() /
                  kdp.report.scheduling_latency_ms.Median(),
              k8sp.report.scheduling_latency_ms.P99() /
                  kdp.report.scheduling_latency_ms.P99());
  std::printf("  Dr/Kd+ vs Dirigent sched-latency p50: %.1fms vs %.1fms\n",
              kdp.report.scheduling_latency_ms.Median(),
              dirigent.report.scheduling_latency_ms.Median());
}


// --smoke: a 30-second clip on Dr/Kd+ and the Dirigent reference.
int RunSmoke() {
  E2eConfig config;
  config.variant = "Dr/Kd+";
  config.num_nodes = 8;
  config.trace.num_functions = 5;
  config.trace.length = Seconds(30);
  config.trace.target_invocations = 60;
  const E2eResult kd = RunE2eWorkload(config);
  config.variant = "Dirigent";
  const E2eResult dirigent = RunE2eWorkload(config);
  return SmokeVerdict(kd.report.completed_requests > 0 &&
                          dirigent.report.completed_requests > 0,
                      "e2e dirigent (Dr/Kd+ + Dirigent clip)");
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
  PrintFigure13(results);
  return 0;
}
