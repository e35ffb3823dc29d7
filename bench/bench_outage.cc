// API-server outage experiment: a timed crash/restart is injected in
// the middle of a steady FaaS load, and the request stream is reported
// per phase (before / during / after the outage) for both modes.
//
// What the fault domain predicts (and this bench demonstrates):
//   - warm traffic keeps flowing in both modes: the Gateway/KubeProxy
//     route from last-known endpoint state, which informers retain
//     across the watch break;
//   - K8s-mode *cold* starts stall for the whole outage: scaling is a
//     chain of API writes, so functions first invoked mid-outage only
//     get capacity after the restart + relist;
//   - Kd-mode cold starts survive: provisioning flows over the
//     hierarchy links, and with `kd_direct_endpoint_publish` the
//     ready-endpoint announcement also bypasses the API server — the
//     outage-phase cold-start p99 stays within ~2x of the no-outage
//     baseline;
//   - after Restart() every informer relists and both modes
//     reconverge: every request issued eventually completes.
#include <map>
#include <string>
#include <vector>

#include "faas/backend.h"
#include "faas/platform.h"
#include "harness.h"

namespace kd::bench {
namespace {

struct OutageConfig {
  controllers::Mode mode = controllers::Mode::kKd;
  bool inject_outage = true;
  int num_nodes = 16;
  // Outage window (absolute sim time; the load runs [0, length]).
  Duration crash_at = Seconds(40);
  Duration restart_at = Seconds(70);
  Duration length = Seconds(110);
  int steady_functions = 4;
  int burst_functions = 3;  // per burst wave (pre / during / post)
};

struct PhaseStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  Sample cold_ms;  // scheduling latency of cold-started requests

  double SuccessRate() const {
    return issued == 0 ? 1.0
                       : static_cast<double>(completed) /
                             static_cast<double>(issued);
  }
};

struct OutageResult {
  PhaseStats phase[3];  // before / during / after
  std::uint64_t retries = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t relists = 0;
  double outage_seconds = 0;
  bool reconverged = false;  // every issued request completed
};

const char* kPhaseNames[3] = {"before", "during", "after"};

OutageResult RunOutage(const OutageConfig& config) {
  sim::Engine engine;
  cluster::ClusterConfig cluster_config;
  cluster_config.mode = config.mode;
  cluster_config.num_nodes = config.num_nodes;
  if (config.mode == controllers::Mode::kKd) {
    // The degradation flag under test: ready/terminated endpoints
    // stream straight from kubelets to the Endpoints controller.
    cluster_config.cost.kd_direct_endpoint_publish = true;
  }
  cluster::Cluster cluster(engine, std::move(cluster_config));
  cluster.Boot();
  faas::ClusterBackend backend(cluster);
  faas::Platform platform(engine, backend, faas::PolicyParams::Knative());

  // Offset between trace time and sim time (boot + informer settle).
  const Duration kSettle = Milliseconds(500);
  const Duration kReqSpacing = Milliseconds(400);
  const Duration kReqDuration = Milliseconds(150);

  // Workload: steady functions invoked throughout (warm-path success
  // rate), plus three waves of functions whose *first* invocation
  // lands before / during / after the outage window (guaranteed cold
  // starts in each phase).
  struct Planned {
    std::string function;
    Duration at;  // absolute
  };
  std::vector<Planned> plan;
  for (int f = 0; f < config.steady_functions; ++f) {
    const std::string name = StrFormat("steady-%02d", f);
    for (Duration t = Seconds(1); t < config.length; t += kReqSpacing) {
      plan.push_back({name, t});
    }
  }
  const Duration wave_starts[3] = {
      Seconds(15), config.crash_at + Seconds(5), config.restart_at +
                                                     Seconds(10)};
  for (int wave = 0; wave < 3; ++wave) {
    for (int f = 0; f < config.burst_functions; ++f) {
      const std::string name = StrFormat("burst-%s-%02d", kPhaseNames[wave],
                                         f);
      for (int r = 0; r < 4; ++r) {
        plan.push_back({name, wave_starts[wave] + r * Milliseconds(200)});
      }
    }
  }

  std::map<std::string, bool> registered;
  for (const Planned& p : plan) {
    if (!registered[p.function]) {
      registered[p.function] = true;
      faas::FunctionSpec spec;
      spec.name = p.function;
      platform.RegisterFunction(spec);
    }
  }
  platform.Start();
  engine.RunFor(kSettle);

  auto phase_of = [&config](Time at) {
    if (at < config.crash_at) return 0;
    if (at < config.restart_at) return 1;
    return 2;
  };

  OutageResult result;
  for (const Planned& p : plan) {
    result.phase[phase_of(p.at)].issued++;
    engine.ScheduleAt(p.at + kSettle, [&platform, p, kReqDuration] {
      platform.Invoke(p.function, kReqDuration);
    });
  }
  if (config.inject_outage) {
    engine.ScheduleAt(config.crash_at + kSettle,
                      [&cluster] { cluster.apiserver().Crash(); });
    engine.ScheduleAt(config.restart_at + kSettle,
                      [&cluster] { cluster.apiserver().Restart(); });
  }
  // Run the load plus a generous drain: K8s-mode cold starts queued
  // during the outage need the post-restart relist to complete.
  engine.RunFor(config.length + Minutes(2));

  for (const faas::RequestRecord& r : platform.gateway().records()) {
    PhaseStats& phase = result.phase[phase_of(r.arrival - kSettle)];
    phase.completed++;
    if (r.cold_start) {
      phase.cold_ms.Add(static_cast<double>(r.SchedulingLatency()) /
                        static_cast<double>(Milliseconds(1)));
    }
  }
  const MetricsRecorder& metrics = cluster.metrics();
  for (const auto& [name, count] : metrics.counters()) {
    if (name.rfind("client.", 0) == 0 &&
        name.find(".retries_total") != std::string::npos) {
      result.retries += static_cast<std::uint64_t>(count);
    }
    if (name.rfind("client.", 0) == 0 &&
        name.find(".deadline_exceeded_total") != std::string::npos) {
      result.deadline_exceeded += static_cast<std::uint64_t>(count);
    }
    if (name.rfind("informer.", 0) == 0) {
      result.relists += static_cast<std::uint64_t>(count);
    }
  }
  if (cluster.apiserver().metrics().HasSample("apiserver.outage_seconds")) {
    result.outage_seconds =
        cluster.apiserver().metrics().GetSample("apiserver.outage_seconds")
            .Sum();
  }
  result.reconverged = true;
  for (int i = 0; i < 3; ++i) {
    if (result.phase[i].completed < result.phase[i].issued) {
      result.reconverged = false;
    }
  }
  return result;
}

std::string VariantName(controllers::Mode mode) {
  return mode == controllers::Mode::kKd ? "Kd" : "K8s";
}

// K8s/baseline, K8s/outage, Kd/baseline and Kd/outage, in the order
// they run; the headline reads the last three by index.
using Results = std::vector<std::pair<std::string, OutageResult>>;

void PrintOutageReport(const Results& results) {
  PrintHeader("API-server outage (30 s mid-load) — cold-start scheduling "
              "latency (ms)",
              {"variant", "phase", "count", "p50", "p99", "success"});
  for (const auto& [name, r] : results) {
    for (int i = 0; i < 3; ++i) {
      const PhaseStats& phase = r.phase[i];
      PrintRow({name, kPhaseNames[i],
                StrFormat("%zu", phase.cold_ms.count()),
                phase.cold_ms.empty() ? "-"
                                      : StrFormat("%.0f",
                                                  phase.cold_ms.Median()),
                phase.cold_ms.empty() ? "-"
                                      : StrFormat("%.0f", phase.cold_ms.P99()),
                StrFormat("%.0f%%", 100.0 * phase.SuccessRate())});
    }
  }
  PrintHeader("fault-domain metrics",
              {"variant", "outage s", "retries", "deadlines", "relists",
               "reconverged"});
  for (const auto& [name, r] : results) {
    PrintRow({name, StrFormat("%.1f", r.outage_seconds),
              StrFormat("%llu", (unsigned long long)r.retries),
              StrFormat("%llu", (unsigned long long)r.deadline_exceeded),
              StrFormat("%llu", (unsigned long long)r.relists),
              r.reconverged ? "yes" : "NO"});
  }

  const OutageResult& k8s_outage = results[1].second;
  const OutageResult& kd_base = results[2].second;
  const OutageResult& kd_outage = results[3].second;
  if (!kd_base.phase[1].cold_ms.empty() &&
      !kd_outage.phase[1].cold_ms.empty()) {
    std::printf(
        "\nHeadline: Kd cold-start p99 during the outage %.0f ms vs %.0f ms "
        "no-outage baseline (%.1fx); K8s outage-phase cold starts %s\n",
        kd_outage.phase[1].cold_ms.P99(), kd_base.phase[1].cold_ms.P99(),
        kd_outage.phase[1].cold_ms.P99() / kd_base.phase[1].cold_ms.P99(),
        k8s_outage.phase[1].cold_ms.empty()
            ? "never completed in-phase (stalled until restart)"
            : StrFormat("stalled to %.0f ms p99",
                        k8s_outage.phase[1].cold_ms.P99())
                  .c_str());
  }
}

// --smoke: one short Kd outage clip; checks the fault domain end to
// end (outage recorded, relists happened, every request completed).
int RunSmoke() {
  OutageConfig config;
  config.num_nodes = 4;
  config.steady_functions = 2;
  config.burst_functions = 1;
  config.crash_at = Seconds(6);
  config.restart_at = Seconds(12);
  config.length = Seconds(20);
  const OutageResult result = RunOutage(config);
  const bool ok = result.reconverged && result.outage_seconds > 5.0 &&
                  result.relists > 0 && result.phase[1].issued > 0;
  return SmokeVerdict(ok, "api-server outage (Kd clip)");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  using namespace kd::bench;
  if (ParseSmokeFlag(argc, argv)) return RunSmoke();
  Results results;
  for (const kd::controllers::Mode mode :
       {kd::controllers::Mode::kK8s, kd::controllers::Mode::kKd}) {
    for (const bool inject : {false, true}) {
      OutageConfig config;
      config.mode = mode;
      config.inject_outage = inject;
      const std::string name =
          VariantName(mode) + (inject ? "/outage" : "/baseline");
      results.emplace_back(name, RunOutage(config));
    }
  }
  PrintOutageReport(results);
  return 0;
}
