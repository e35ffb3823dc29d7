// Shared harness for the figure/table benches.
//
// Every bench binary reproduces one figure of the paper's evaluation:
// it runs the deterministic simulation, prints the paper-style series
// (who is on the x-axis, which baselines, which breakdowns), and also
// registers the runs with google-benchmark so the standard tooling
// (--benchmark_format=json etc.) works. Reported times are *simulated*
// latencies; see EXPERIMENTS.md for the calibration discussion.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/strings.h"
#include "summary.h"

namespace kd::bench {

// --- phase timing + engine counters -------------------------------------
// Host wall-clock phase split (setup = construct+boot+register, run =
// the measured experiment, teardown = scrape + destruction) plus the
// engine's event count, recorded into every BENCH_*.json so perf
// regressions are attributable to a phase, not just a total. bench/ is
// outside the kdlint sweep scope (src/ only): steady_clock here times
// the host, never the simulation.
struct PhaseTimes {
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;
};

class PhaseClock {
 public:
  PhaseClock() : last_(std::chrono::steady_clock::now()) {}
  // Seconds since construction or the previous Lap().
  double Lap() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    return s;
  }

 private:
  std::chrono::steady_clock::time_point last_;
};

// Events the engine fired over the run.
struct EngineStats {
  std::uint64_t processed_events = 0;
};

inline EngineStats CaptureEngineStats(const sim::Engine& engine) {
  return EngineStats{engine.processed_events()};
}

// JSON object fragments shared by every bench writer (no trailing
// comma or newline — callers embed them as `"phases": %s`).
inline std::string PhasesJson(const PhaseTimes& t) {
  return StrFormat("{\"setup_s\": %.3f, \"run_s\": %.3f, \"teardown_s\": %.3f}",
                   t.setup_s, t.run_s, t.teardown_s);
}

inline std::string EngineStatsJson(const EngineStats& s) {
  return StrFormat("{\"processed_events\": %llu}",
                   static_cast<unsigned long long>(s.processed_events));
}

// --- smoke mode ---------------------------------------------------------
// Every bench binary accepts --smoke: a tiny-N/K/M configuration that
// finishes in a couple of seconds and is registered as a ctest entry
// (label: bench_smoke), so the benchmark code is exercised on every
// test run and cannot silently rot. Returns true if the flag was
// present; the flag is stripped from argv either way.
inline bool ConsumeSmokeFlag(int& argc, char** argv) {
  bool smoke = false;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::string(argv[r]) == "--smoke") {
      smoke = true;
      continue;
    }
    argv[w++] = argv[r];
  }
  argc = w;
  return smoke;
}

// Prints a smoke-check verdict and converts it to a process exit code.
inline int SmokeVerdict(bool ok, const std::string& what) {
  std::printf("[smoke] %s: %s\n", what.c_str(), ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

// One upscaling experiment: K functions x (N/K) pods each on M nodes,
// one-shot strawman autoscaler calls (§6.1 methodology). Returns the
// end-to-end latency and the per-controller stage spans.
struct UpscaleResult {
  Duration e2e = 0;
  Duration autoscaler = 0;
  Duration deployment = 0;
  Duration replicaset = 0;
  Duration scheduler = 0;
  Duration sandbox = 0;  // kubelet span
  bool converged = false;
  PhaseTimes phases;    // host wall-clock per phase
  EngineStats engine;
};

inline UpscaleResult RunUpscale(cluster::ClusterConfig config, int functions,
                                int total_pods,
                                Duration deadline = Minutes(30)) {
  UpscaleResult result;
  PhaseClock clock;
  {
    sim::Engine engine;
    cluster::Cluster cluster(engine, std::move(config));
    cluster.Boot();
    for (int f = 0; f < functions; ++f) {
      cluster.RegisterFunction(StrFormat("fn-%04d", f));
    }
    engine.RunFor(Milliseconds(200));  // informers observe registrations
    cluster.metrics().Clear();
    result.phases.setup_s = clock.Lap();

    const Time start = engine.now();
    const int per_function = total_pods / functions;
    for (int f = 0; f < functions; ++f) {
      cluster.ScaleTo(StrFormat("fn-%04d", f), per_function);
    }
    // Coarser predicate polling for very large runs. The poll is O(1),
    // but E2E is quantized to the tick, and the recorded numbers were
    // taken at these ticks.
    const Duration tick = total_pods >= 5000 ? Milliseconds(100)
                                             : Milliseconds(5);
    result.converged = cluster.RunUntil(
        [&] {
          return cluster.TotalReadyPods() ==
                 static_cast<std::size_t>(per_function * functions);
        },
        deadline, tick);
    result.e2e = engine.now() - start;
    result.phases.run_s = clock.Lap();
    // Isolated per-stage time (what the stage would take with
    // instantaneous upstream messages, Fig. 3 methodology): the max of
    // the controller's API-client active time (rate limiter + in-flight
    // requests) and its control-loop active time.
    auto stage = [&](const char* loop, const char* client) {
      return std::max(cluster.metrics().GetBusy(std::string(loop) + ".active"),
                      cluster.metrics().GetBusy(std::string(client) +
                                                ".active"));
    };
    result.autoscaler = stage("autoscaler", "autoscaler");
    result.deployment = stage("deployment", "deployment-controller");
    result.replicaset = stage("replicaset", "replicaset-controller");
    result.scheduler = stage("scheduler", "scheduler");
    // Sandbox manager: worst per-pod latency (bind -> published), which
    // captures per-node queueing but not upstream lag.
    result.sandbox =
        MillisecondsF(cluster.metrics().GetSample("kubelet_pod_latency").Max());
    result.engine = CaptureEngineStats(engine);
  }
  result.phases.teardown_s = clock.Lap();  // cluster + engine destruction
  return result;
}

// Downscale counterpart: scale K functions from `from` to `to` pods
// each; latency until the API server view drains to the target.
// `phases`/`stats`, when non-null, receive the host phase split (setup
// = boot + the upscale leg, run = the measured downscale) and the
// engine counters of the run.
inline Duration RunDownscale(cluster::ClusterConfig config, int functions,
                             int pods_from, int pods_to,
                             Duration deadline = Minutes(30),
                             PhaseTimes* phases = nullptr,
                             EngineStats* stats = nullptr) {
  PhaseClock clock;
  Duration latency = -1;
  {
    sim::Engine engine;
    cluster::Cluster cluster(engine, std::move(config));
    cluster.Boot();
    for (int f = 0; f < functions; ++f) {
      cluster.RegisterFunction(StrFormat("fn-%04d", f));
    }
    engine.RunFor(Milliseconds(200));
    for (int f = 0; f < functions; ++f) {
      cluster.ScaleTo(StrFormat("fn-%04d", f), pods_from);
    }
    const bool up = cluster.RunUntil(
        [&] {
          return cluster.TotalReadyPods() ==
                 static_cast<std::size_t>(pods_from * functions);
        },
        deadline);
    if (phases != nullptr) phases->setup_s = clock.Lap();
    if (up) {
      const Time start = engine.now();
      for (int f = 0; f < functions; ++f) {
        cluster.ScaleTo(StrFormat("fn-%04d", f), pods_to);
      }
      const bool down = cluster.RunUntil(
          [&] {
            return cluster.TotalReadyPods() ==
                   static_cast<std::size_t>(pods_to * functions);
          },
          deadline);
      if (down) latency = engine.now() - start;
    }
    if (phases != nullptr) phases->run_s = clock.Lap();
    if (stats != nullptr) *stats = CaptureEngineStats(engine);
  }
  if (phases != nullptr) phases->teardown_s = clock.Lap();
  return latency;
}

// Table printing lives in summary.h (shared with the e2e and scenario
// benches).

}  // namespace kd::bench
