// Figure 3: the motivation measurements.
//   3a — end-to-end K8s upscaling latency vs each controller's isolated
//        time (one pod per Deployment, 80 nodes): controllers are fast
//        on their own; message passing through the API server dominates.
//   3b — cold starts per minute in a 24 h Azure-like trace vs the
//        measured capability of the stock Kubernetes control plane.
#include "harness.h"
#include "trace/azure.h"

namespace kd::bench {
namespace {

using cluster::ClusterConfig;

const int kPodCounts[] = {100, 200, 400, 800};

struct Row {
  int pods;
  UpscaleResult result;
};

void PrintFigure3(const std::vector<Row>& rows) {
  PrintHeader(
      "Figure 3a: K8s E2E latency vs isolated per-controller time "
      "(1 pod/Deployment, M=80)",
      {"pods", "E2E", "autoscaler", "deployment", "replicaset", "scheduler",
       "kubelet"});
  for (const Row& row : rows) {
    PrintRow({StrFormat("%d", row.pods), Secs(row.result.e2e),
              Secs(row.result.autoscaler), Secs(row.result.deployment),
              Secs(row.result.replicaset), Secs(row.result.scheduler),
              Secs(row.result.sandbox)});
  }
  std::printf(
      "\nReading: every upper-waist controller's isolated time is within\n"
      "the same order as the E2E latency (they are all message-passing\n"
      "bound), while the per-node Kubelets stay flat — the paper's\n"
      "observation that the narrow waist, not the sandbox, is the\n"
      "bottleneck.\n");

  // --- Fig. 3b -----------------------------------------------------------
  auto curve = trace::ColdStartRateCurve();
  double peak = 0, mean = 0;
  int above_10k = 0, above_50k = 0;
  for (double v : curve) {
    peak = std::max(peak, v);
    mean += v;
    if (v > 10'000) ++above_10k;
    if (v > 50'000) ++above_50k;
  }
  mean /= static_cast<double>(curve.size());

  // Measured K8s capability: instances the stock control plane can
  // provision per minute (from the 800-pod run above).
  const Row& largest = rows.back();
  const double k8s_per_minute =
      800.0 / ToSeconds(largest.result.e2e) * 60.0;

  PrintHeader("Figure 3b: Azure trace cold starts/min vs K8s capability",
              {"metric", "value"});
  PrintRow({"trace mean/min", StrFormat("%.0f", mean)});
  PrintRow({"trace peak/min", StrFormat("%.0f", peak)});
  PrintRow({"mins >10k", StrFormat("%d", above_10k)});
  PrintRow({"mins >50k", StrFormat("%d", above_50k)});
  PrintRow({"K8s capability/min", StrFormat("%.0f", k8s_per_minute)});
  PrintRow({"shortfall at peak",
            StrFormat("%.0fx", peak / k8s_per_minute)});
  std::printf(
      "\nReading: the trace peaks above 50k cold starts/min; the stock\n"
      "control plane provisions ~%.0f instances/min — the gap of Fig. 3.\n",
      k8s_per_minute);
}


// --smoke: tiny K8s breakdown + the Fig. 3b curve shape.
int RunSmoke() {
  const UpscaleResult result = RunUpscale(ClusterConfig::K8s(8), 4, 4);
  const auto curve = trace::ColdStartRateCurve(/*minutes=*/60);
  return SmokeVerdict(result.converged && curve.size() == 60,
                      "motivation (K8s breakdown + cold-start curve)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  std::vector<Row> rows;
  for (int pods : kPodCounts) {
    // One pod per Deployment, like Fig. 3's setup.
    rows.push_back(Row{pods, RunUpscale(ClusterConfig::K8s(80), pods, pods)});
  }
  PrintFigure3(rows);
  return 0;
}
