// One API server with APF flow control under a cold-start burst: M
// nodes and K functions (default M=4000/K=2500), each function
// cold-started exactly once.
//
// What this measures (numbers in BENCH_shard.json):
//   - K8s mode funnels every provisioning step (pod create, bind,
//     status, endpoints) through the API server, so the K-function
//     burst serializes behind its APF seats — cold-start p99 lands
//     hundreds of times above Kd's, which provisions over the
//     hierarchy links;
//   - the server's queue/inflight maxima are dominated by the boot
//     storm (node registration + kubelet adopt lists) in BOTH modes:
//     APF is what absorbs cluster bring-up, not just the cold-start
//     burst;
//   - Kd is not API-free at this scale: distributing K ReplicaSet
//     templates to M kubelet informers costs M*K watch events (the
//     materialization-cache sync) — the API load Kd retains is
//     reads/watches.
//
// The bench is named for the sharded control plane it once measured;
// DESIGN.md §6 records why that plane was removed.
//
// Results are written to BENCH_shard.json (per-mode cold-start
// percentiles + the server's queue-depth/inflight maxima).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "faas/backend.h"
#include "faas/platform.h"
#include "harness.h"

namespace kd::bench {
namespace {

// BENCH_SHARD_NODES / BENCH_SHARD_FUNCTIONS override the default
// scale (e.g. the paper-scale M=16000/K=10000, which needs far more
// memory than the default) without touching the committed shape of
// BENCH_shard.json.
int EnvScale(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const int n = std::atoi(env);
  return n > 0 ? n : fallback;
}

struct ShardBenchConfig {
  controllers::Mode mode = controllers::Mode::kKd;
  int num_nodes = EnvScale("BENCH_SHARD_NODES", 4000);
  int num_functions = EnvScale("BENCH_SHARD_FUNCTIONS", 2500);
  int apf_seats = 64;  // the server's concurrency seats (APF on)
  // First invocations are spread uniformly over this window; each
  // function is invoked exactly once, so every request is a
  // scale-from-zero cold start.
  Duration arrival_window = Seconds(10);
  Duration deadline = Minutes(60);
};

struct ServerStats {
  std::int64_t objects = 0;
  std::int64_t inflight_max = 0;
  std::int64_t apf_queue_depth_max = 0;
  std::int64_t watch_events = 0;
};

struct ShardBenchResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  Sample cold_ms;  // scheduling latency of cold-started requests
  double sim_s = 0;
  ServerStats server;
  bool converged = false;  // every issued request completed
  PhaseTimes phases;
  std::uint64_t engine_events = 0;
};

ShardBenchResult RunShardBench(const ShardBenchConfig& config) {
  ShardBenchResult result;
  PhaseClock clock;
  {
    sim::Engine engine;
    cluster::ClusterConfig cluster_config;
    cluster_config.mode = config.mode;
    cluster_config.num_nodes = config.num_nodes;
    cluster_config.cost.apf_seats = config.apf_seats;
    // Minimal pod template: K pods x several caches at large M — the
    // load under test is API traffic volume, not wire size.
    cluster_config.realistic_pod_template = false;
    cluster::Cluster cluster(engine, std::move(cluster_config));
    cluster.Boot();
    faas::ClusterBackend backend(cluster);
    faas::Platform platform(engine, backend, faas::PolicyParams::Knative());

    for (int f = 0; f < config.num_functions; ++f) {
      faas::FunctionSpec spec;
      spec.name = StrFormat("fn-%05d", f);
      platform.RegisterFunction(spec);
    }
    platform.Start();
    const Duration kSettle = Milliseconds(500);
    engine.RunFor(kSettle);
    result.phases.setup_s = clock.Lap();

    const Duration kReqDuration = Milliseconds(100);
    result.issued = static_cast<std::uint64_t>(config.num_functions);
    for (int f = 0; f < config.num_functions; ++f) {
      const Duration at =
          kSettle + (config.arrival_window * f) / config.num_functions;
      const std::string name = StrFormat("fn-%05d", f);
      engine.ScheduleAt(at, [&platform, name, kReqDuration] {
        platform.Invoke(name, kReqDuration);
      });
    }

    // Run to convergence (every request completed) or the deadline.
    const Duration kChunk = Seconds(5);
    for (Duration ran = 0;
         ran < config.deadline &&
         platform.gateway().records().size() < result.issued;
         ran += kChunk) {
      engine.RunFor(kChunk);
    }
    result.phases.run_s = clock.Lap();

    for (const faas::RequestRecord& r : platform.gateway().records()) {
      result.completed++;
      if (r.cold_start) {
        result.cold_ms.Add(static_cast<double>(r.SchedulingLatency()) /
                           static_cast<double>(Milliseconds(1)));
      }
    }
    result.converged = result.completed == result.issued;
    result.sim_s = ToSeconds(engine.now());

    apiserver::ApiServer& server = cluster.apiserver();
    MetricsRecorder& m = server.metrics();
    result.server.objects = static_cast<std::int64_t>(server.object_count());
    result.server.inflight_max = m.GetCount("api.inflight_max");
    result.server.apf_queue_depth_max = m.GetCount("apf.queue_depth_max");
    result.server.watch_events = m.GetCount("watch_events");
    result.engine_events = engine.processed_events();
  }
  // Scrape + destruction (K x M informer caches) land in teardown.
  result.phases.teardown_s = clock.Lap();
  return result;
}

std::string VariantName(controllers::Mode mode) {
  return mode == controllers::Mode::kKd ? "Kd" : "K8s";
}

// K8s then Kd, in the order they run; the headline reads them by index.
using Results = std::vector<std::pair<std::string, ShardBenchResult>>;

void WriteJson(const Results& results, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  const ShardBenchConfig defaults;
  std::fprintf(f,
               "{\n"
               "  \"comment\": \"One API server with APF at M=%d/K=%d: each "
               "function cold-started once. Regenerate with: "
               "build/bench/bench_shard (writes ./BENCH_shard.json).\",\n"
               "  \"config\": {\n"
               "    \"nodes\": %d,\n"
               "    \"functions\": %d,\n"
               "    \"apf_seats\": %d\n"
               "  },\n"
               "  \"modes\": {\n",
               defaults.num_nodes, defaults.num_functions, defaults.num_nodes,
               defaults.num_functions, defaults.apf_seats);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [name, r] = results[i];
    std::fprintf(f,
                 "    \"%s\": {\n"
                 "      \"issued\": %llu,\n"
                 "      \"completed\": %llu,\n"
                 "      \"converged\": %s,\n"
                 "      \"cold_starts\": %zu,\n"
                 "      \"cold_p50_ms\": %.1f,\n"
                 "      \"cold_p99_ms\": %.1f,\n"
                 "      \"sim_s\": %.1f,\n"
                 "      \"phases\": %s,\n"
                 "      \"engine\": %s,\n"
                 "      \"server\": {\"objects\": %lld, \"inflight_max\": "
                 "%lld, \"apf_queue_depth_max\": %lld, \"watch_events\": "
                 "%lld}\n"
                 "    }%s\n",
                 name.c_str(), (unsigned long long)r.issued,
                 (unsigned long long)r.completed,
                 r.converged ? "true" : "false", r.cold_ms.count(),
                 r.cold_ms.empty() ? 0.0 : r.cold_ms.Median(),
                 r.cold_ms.empty() ? 0.0 : r.cold_ms.P99(), r.sim_s,
                 PhasesJson(r.phases).c_str(),
                 EngineStatsJson(r.engine_events).c_str(),
                 (long long)r.server.objects, (long long)r.server.inflight_max,
                 (long long)r.server.apf_queue_depth_max,
                 (long long)r.server.watch_events,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void PrintShardReport(const Results& results) {
  const ShardBenchConfig defaults;
  PrintHeader(StrFormat("One API server (APF on): K=%d cold starts at M=%d",
                        defaults.num_functions, defaults.num_nodes),
              {"mode", "completed", "cold p50", "cold p99", "queue max",
               "converged"});
  for (const auto& [name, r] : results) {
    PrintRow({name,
              StrFormat("%llu/%llu", (unsigned long long)r.completed,
                        (unsigned long long)r.issued),
              r.cold_ms.empty() ? "-" : StrFormat("%.0fms", r.cold_ms.Median()),
              r.cold_ms.empty() ? "-" : StrFormat("%.0fms", r.cold_ms.P99()),
              StrFormat("%lld", (long long)r.server.apf_queue_depth_max),
              r.converged ? "yes" : "NO"});
  }
  PrintHeader("API-server load",
              {"mode", "objects", "inflight max", "queue max", "watch evts"});
  for (const auto& [name, r] : results) {
    PrintRow({name, StrFormat("%lld", (long long)r.server.objects),
              StrFormat("%lld", (long long)r.server.inflight_max),
              StrFormat("%lld", (long long)r.server.apf_queue_depth_max),
              StrFormat("%lld", (long long)r.server.watch_events)});
  }

  const ShardBenchResult& k8s = results[0].second;
  const ShardBenchResult& kd = results[1].second;
  if (!k8s.cold_ms.empty() && !kd.cold_ms.empty()) {
    std::printf(
        "\nHeadline: Kd cold-start p99 %.0f ms vs K8s %.0f ms (%.1fx) — the "
        "K8s-mode burst serializes behind the API server's APF seats; Kd's "
        "placement writes bypass it\n",
        kd.cold_ms.P99(), k8s.cold_ms.P99(),
        k8s.cold_ms.P99() / kd.cold_ms.P99());
  }
}

// --smoke: the same shape at M=60/K=24, both modes; checks convergence
// and that every request cold-started.
int RunSmoke() {
  bool ok = true;
  for (const controllers::Mode mode :
       {controllers::Mode::kK8s, controllers::Mode::kKd}) {
    ShardBenchConfig config;
    config.mode = mode;
    config.num_nodes = 60;
    config.num_functions = 24;
    config.apf_seats = 8;
    config.arrival_window = Seconds(2);
    config.deadline = Minutes(10);
    const ShardBenchResult result = RunShardBench(config);
    ok = ok && result.converged && result.cold_ms.count() == 24;
  }
  return SmokeVerdict(ok, "one API server (M=60/K=24 clip, both modes)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  Results results;
  for (const kd::controllers::Mode mode :
       {kd::controllers::Mode::kK8s, kd::controllers::Mode::kKd}) {
    ShardBenchConfig config;
    config.mode = mode;
    results.emplace_back(VariantName(mode), RunShardBench(config));
  }
  PrintShardReport(results);
  WriteJson(results, "BENCH_shard.json");
  return 0;
}
