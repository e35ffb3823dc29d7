// Shared driver for the end-to-end FaaS workload benches
// (Figs. 12-13): replays the synthetic Azure-like trace against one
// platform variant of Fig. 8b and reports the per-function slowdown
// and scheduling-latency distributions.
#pragma once

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "faas/backend.h"
#include "faas/platform.h"
#include "harness.h"
#include "trace/azure.h"

namespace kd::bench {

struct E2eConfig {
  // "Kn/K8s", "Kn/Kd", "Dr/K8s+", "Dr/Kd+", "Dirigent"
  std::string variant;
  int num_nodes = 80;
  trace::TraceConfig trace;
};

struct E2eResult {
  faas::Report report;
  std::int64_t pods_created = 0;  // cold starts in the §6.2 sense
  std::uint64_t scale_calls = 0;
};

inline E2eResult RunE2eWorkload(const E2eConfig& config) {
  sim::Engine engine;
  trace::AzureTrace workload = trace::AzureTrace::Generate(config.trace);

  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<faas::Backend> backend;
  faas::PolicyParams params;
  CostModel cost = CostModel::Default();

  if (config.variant == "Dirigent") {
    backend = std::make_unique<faas::DirigentBackend>(engine, cost,
                                                      config.num_nodes);
    params = faas::PolicyParams::Dirigent();
  } else {
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    cluster_config.mode = config.variant.find("Kd") != std::string::npos
                              ? controllers::Mode::kKd
                              : controllers::Mode::kK8s;
    cluster_config.sandbox = config.variant.find('+') != std::string::npos
                                 ? cluster::SandboxKind::kDirigent
                                 : cluster::SandboxKind::kStock;
    cluster_config.realistic_pod_template = true;
    cluster = std::make_unique<cluster::Cluster>(engine,
                                                 std::move(cluster_config));
    cluster->Boot();
    backend = std::make_unique<faas::ClusterBackend>(*cluster);
    params = StartsWith(config.variant, "Dr")
                 ? faas::PolicyParams::Dirigent()
                 : faas::PolicyParams::Knative();
  }

  faas::Platform platform(engine, *backend, params);
  for (int f = 0; f < workload.num_functions(); ++f) {
    faas::FunctionSpec spec;
    spec.name = workload.FunctionName(f);
    platform.RegisterFunction(spec);
  }
  platform.Start();
  engine.RunFor(Milliseconds(500));

  for (const trace::TraceEvent& event : workload.events()) {
    engine.ScheduleAt(event.at + Milliseconds(500),
                      [&platform, &workload, event] {
                        platform.Invoke(workload.FunctionName(event.function),
                                        event.duration);
                      });
  }
  // Run the clip plus a drain window for stragglers.
  engine.RunFor(config.trace.length + Minutes(5));

  E2eResult result;
  result.report = platform.BuildReport();
  result.scale_calls = platform.policy().scale_calls();
  if (cluster != nullptr) {
    result.pods_created = cluster->metrics().GetCount("pods_created");
  } else {
    result.pods_created = static_cast<std::int64_t>(
        static_cast<faas::DirigentBackend*>(backend.get())
            ->instances_started());
  }
  return result;
}

inline void PrintE2eRows(const std::string& title,
                         const std::vector<std::pair<std::string, E2eResult>>&
                             results) {
  PrintHeader(title + " — per-function slowdown",
              {"variant", "p50", "p99", "mean"});
  for (const auto& [name, r] : results) {
    PrintRow(SummaryRow(name, r.report.slowdown, 2, 1, 2));
  }
  PrintHeader(title + " — per-function scheduling latency (ms)",
              {"variant", "p50", "p99", "mean"});
  for (const auto& [name, r] : results) {
    PrintRow(SummaryRow(name, r.report.scheduling_latency_ms, 1, 0, 1));
  }
  PrintHeader(title + " — volume", {"variant", "requests", "completed",
                                    "instances", "scale calls"});
  for (const auto& [name, r] : results) {
    PrintRow({name,
              StrFormat("%llu", (unsigned long long)r.report.total_requests),
              StrFormat("%llu",
                        (unsigned long long)r.report.completed_requests),
              StrFormat("%lld", (long long)r.pods_created),
              StrFormat("%llu", (unsigned long long)r.scale_calls)});
  }
}

}  // namespace kd::bench
