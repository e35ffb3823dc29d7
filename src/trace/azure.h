// Synthetic Azure-Functions-like workload (the §6.2 trace substitute).
//
// The real artifact replays a 30-minute clip of the Microsoft Azure
// Functions trace (500 functions, 168K invocations) [Shahrad et al.,
// ATC'20]. The trace itself is not redistributable here, so this
// generator reproduces its load-bearing marginals:
//   - heavy-tailed per-function invocation rates (most functions are
//     rare; a few are very hot — log-normal across functions);
//   - short, skewed execution durations (log-normal, sub-second
//     median) sampled per function, then per invocation;
//   - Poisson arrivals per function PLUS correlated bursts of cold
//     (infrequent) functions — the phenomenon the paper identifies as
//     the source of the K8s baselines' long tails.
//
// DESIGN.md documents this substitution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"

namespace kd::trace {

struct TraceConfig {
  int num_functions = 500;
  Duration length = Minutes(30);
  std::uint64_t target_invocations = 168'000;
  std::uint64_t seed = 42;

  // Rate skew across functions (sigma of the log-normal).
  double rate_sigma = 2.0;
  // Duration distribution: median and skew.
  Duration median_duration = Milliseconds(600);
  double duration_sigma = 1.0;
  Duration min_duration = Milliseconds(1);
  Duration max_duration = Seconds(60);

  // Correlated cold bursts: every [min,max] interval, a fraction of
  // the coldest functions fire simultaneously.
  Duration burst_interval_min = Minutes(3);
  Duration burst_interval_max = Minutes(7);
  double burst_function_fraction = 0.10;
  int burst_invocations_per_function = 2;
};

struct TraceEvent {
  Time at;
  int function;       // index into function names
  Duration duration;  // requested execution time
};

class AzureTrace {
 public:
  static AzureTrace Generate(const TraceConfig& config);

  const std::vector<TraceEvent>& events() const { return events_; }
  int num_functions() const { return num_functions_; }
  std::string FunctionName(int index) const;
  Duration length() const { return length_; }

  // Per-minute invocation counts (the burstiness profile).
  std::vector<std::uint64_t> PerMinuteCounts() const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<double> rates_;
  int num_functions_ = 0;
  Duration length_ = 0;
};

// Fig. 3b: the cold-start-per-minute curve of the full 24 h Azure
// trace — synthesized at Azure scale (diurnal base load with bursts
// peaking above 50k cold starts/minute), used by the motivation bench
// to contrast against the measured K8s control-plane capability.
std::vector<double> ColdStartRateCurve(int minutes = 24 * 60,
                                       std::uint64_t seed = 7);

}  // namespace kd::trace
