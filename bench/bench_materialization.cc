// Figure 14: the dynamic-materialization ablation — KubeDirect with
// pointer-compressed messages vs naive direct message passing that
// ships full API objects (avoids API-server persistence but not
// serialization/deserialization). Paper: the naive approach is 20-35%
// slower on the K-scalability setup.
#include "harness.h"

namespace kd::bench {
namespace {

using cluster::ClusterConfig;

constexpr int kNodes = 80;
const int kFunctionCounts[] = {100, 200, 400, 800};

// Kd's upscale E2E at each function count, shipping pointer-compressed
// messages or, if `naive`, full objects.
std::vector<Duration> SweepE2e(bool naive) {
  std::vector<Duration> e2e;
  for (int functions : kFunctionCounts) {
    ClusterConfig config = ClusterConfig::Kd(kNodes);
    config.cost.kd_naive_full_objects = naive;
    e2e.push_back(RunUpscale(std::move(config), functions, functions).e2e);
  }
  return e2e;
}

// `kd` and `naive` are indexed like kFunctionCounts.
void PrintFigure14(const std::vector<Duration>& kd,
                   const std::vector<Duration>& naive) {
  PrintHeader(
      "Figure 14: dynamic materialization vs naive full-object passing "
      "(paper: naive is 20-35% slower)",
      {"functions", "Kd", "naive", "overhead"});
  for (std::size_t i = 0; i < std::size(kFunctionCounts); ++i) {
    const double overhead =
        static_cast<double>(naive[i]) / static_cast<double>(kd[i]) - 1.0;
    PrintRow({StrFormat("%d", kFunctionCounts[i]), Secs(kd[i]), Secs(naive[i]),
              StrFormat("+%.0f%%", 100.0 * overhead)});
  }
}


// --smoke: both materialization modes at tiny K.
int RunSmoke() {
  ClusterConfig kd = ClusterConfig::Kd(8);
  ClusterConfig naive = ClusterConfig::Kd(8);
  naive.cost.kd_naive_full_objects = true;
  const UpscaleResult a = RunUpscale(std::move(kd), 4, 4);
  const UpscaleResult b = RunUpscale(std::move(naive), 4, 4);
  return SmokeVerdict(a.converged && b.converged,
                      "materialization (pointer + naive)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  const std::vector<kd::Duration> pointer = SweepE2e(/*naive=*/false);
  PrintFigure14(pointer, SweepE2e(/*naive=*/true));
  return 0;
}
