// Shared execution environment handed to every controller: the event
// engine, the API server, the network, the cost model, and the
// run-wide metrics recorder benches read their breakdowns from.
#pragma once

#include "apiserver/apiserver.h"
#include "common/cost_model.h"
#include "common/metrics.h"
#include "net/network.h"
#include "sim/engine.h"

namespace kd::runtime {

struct Env {
  sim::Engine& engine;
  net::Network& network;
  apiserver::ApiServer& apiserver;
  const CostModel& cost;
  MetricsRecorder& metrics;
};

}  // namespace kd::runtime
