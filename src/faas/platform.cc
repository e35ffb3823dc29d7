#include "faas/platform.h"

#include <map>

namespace kd::faas {

Platform::Platform(sim::Engine& engine, Backend& backend,
                   PolicyParams params, Duration route_latency)
    : engine_(engine),
      backend_(backend),
      gateway_(engine, route_latency),
      policy_(engine, gateway_, backend, params) {
  backend_.SetEndpointSink(
      [this](const std::string& function,
             const std::vector<std::string>& addresses) {
        gateway_.UpdateEndpoints(function, addresses);
      });
}

void Platform::RegisterFunction(const FunctionSpec& spec) {
  backend_.RegisterFunction(spec);
  policy_.RegisterFunction(spec, gateway_.RegisterFunction(spec));
}

void Platform::Start() { policy_.Start(); }

void Platform::Invoke(const std::string& function, Duration duration) {
  Invocation inv;
  inv.function = function;
  inv.arrival = engine_.now();
  inv.duration = duration;
  gateway_.Invoke(std::move(inv));
}

Report Platform::BuildReport() const {
  Report report;
  report.total_requests = gateway_.total_invocations();
  report.completed_requests = gateway_.records().size();
  report.cold_queued_starts = gateway_.queued_starts();

  struct PerFunction {
    double slowdown_sum = 0;
    double sched_ms_sum = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, PerFunction> by_function;
  // Requested duration = completed - started (the busy loop runs for
  // exactly the requested time in this model).
  for (const RequestRecord& r : gateway_.records()) {
    PerFunction& f = by_function[r.function];
    const Duration requested = r.completed - r.started;
    f.slowdown_sum += r.Slowdown(requested);
    f.sched_ms_sum += ToMillis(r.SchedulingLatency());
    ++f.count;
  }
  for (const auto& [function, f] : by_function) {
    if (f.count == 0) continue;
    report.slowdown.Add(f.slowdown_sum / static_cast<double>(f.count));
    report.scheduling_latency_ms.Add(f.sched_ms_sum /
                                     static_cast<double>(f.count));
  }
  return report;
}

}  // namespace kd::faas
