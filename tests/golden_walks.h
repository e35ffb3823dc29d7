// The two golden cluster walks whose event traces determinism_test.cc
// fingerprints, shared with the reference-codec audit
// (codec_audit_test.cc). Each walk builds its own engine and cluster
// and returns its full (time, seq) event trace. `observer` (optional)
// becomes the cluster network's send observer before boot, so it sees
// every payload of the walk.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "common/strings.h"
#include "faas/backend.h"
#include "faas/platform.h"
#include "net/network.h"
#include "sim/engine.h"
#include "trace/azure.h"

namespace kd::golden {

inline void AttachRecorder(sim::Engine& engine, std::string& trace) {
  engine.set_trace_hook([&trace](Time t, std::uint64_t seq, sim::EventId) {
    trace += StrFormat("%lld %llu\n", static_cast<long long>(t),
                       static_cast<unsigned long long>(seq));
  });
}

// A short but full-fidelity Kd cluster scenario: boot, register two
// functions, scale both up, let one converge, then scale one down.
// Exercises informers, watch fan-out, schedulers, kubelets, network
// timers — every event source in the tree.
inline std::string KdClusterTrace(
    net::Network::SendObserver observer = nullptr) {
  sim::Engine engine;
  std::string trace;
  AttachRecorder(engine, trace);

  cluster::ClusterConfig config = cluster::ClusterConfig::Kd(8);
  config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(config));
  cluster.network().set_send_observer(std::move(observer));
  cluster.Boot();
  cluster.RegisterFunction("fn-a");
  cluster.RegisterFunction("fn-b");
  engine.RunFor(Milliseconds(200));

  cluster.ScaleTo("fn-a", 16);
  cluster.ScaleTo("fn-b", 8);
  engine.RunFor(Seconds(15));
  cluster.ScaleTo("fn-a", 4);
  cluster.ScaleTo("fn-b", 12);
  engine.RunFor(Seconds(15));
  return trace;
}

// A fixed-seed FaaS replay on the Kn/Kd stack: heavy-tailed arrivals,
// autoscaling round trips, cold starts.
inline std::string FaasReplayTrace(
    net::Network::SendObserver observer = nullptr) {
  sim::Engine engine;
  std::string trace;
  AttachRecorder(engine, trace);

  trace::TraceConfig trace_config;
  trace_config.num_functions = 12;
  trace_config.length = Minutes(2);
  trace_config.target_invocations = 600;
  trace_config.seed = 7;
  trace::AzureTrace workload = trace::AzureTrace::Generate(trace_config);

  cluster::ClusterConfig cluster_config = cluster::ClusterConfig::Kd(16);
  cluster_config.realistic_pod_template = false;
  cluster::Cluster cluster(engine, std::move(cluster_config));
  cluster.network().set_send_observer(std::move(observer));
  cluster.Boot();
  faas::ClusterBackend backend(cluster);
  faas::Platform platform(engine, backend, faas::PolicyParams::Knative());
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
  engine.RunFor(trace_config.length + Minutes(1));
  return trace;
}

}  // namespace kd::golden
