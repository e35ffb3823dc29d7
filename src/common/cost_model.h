// Central cost model for the simulation.
//
// Every latency constant the reproduction depends on lives here, with
// the paper (or Kubernetes documentation) reference that motivates it,
// apart from the simulated network's link latency, bandwidth and
// keepalive timeout, which are constants in net/network.h. Benches
// vary the fields below to run ablations; tests pin them for
// determinism.
//
// Calibration targets from the paper:
//   - a standard Kubernetes API call takes 10-35 ms end-to-end (§6.3);
//   - controllers' client-side rate limits dominate large fan-outs
//     (§2.2): stock client-go defaults are QPS 5-50 with small bursts;
//   - KubeDirect message passing is sub-millisecond per hop, with soft
//     invalidation at 0.5-1.2 ms (§6.3);
//   - API objects average ~17 KB, KubeDirect messages <= 64 B (§3.2);
//   - container creation itself is sub-second and not the bottleneck
//     (§1); Dirigent's sandbox manager is substantially faster.
#pragma once

#include <cstdint>

#include "common/time.h"

namespace kd {

struct CostModel {
  // --- API server / etcd ------------------------------------------------
  // One-way network latency between any component and the API server.
  Duration api_network_latency = MicrosecondsF(250);
  // CPU time the API server spends per request excluding (de)serialization.
  Duration api_processing = MillisecondsF(1.0);
  // Handler threads inside the API server; requests queue beyond this.
  int api_server_workers = 16;
  // Serialization/deserialization cost, charged per byte on both ends
  // (JSON/protobuf marshalling of deeply nested API objects; Go's
  // encoding/json runs at roughly this rate on pod-shaped values).
  double serialize_ns_per_byte = 120.0;
  // etcd write path: raft commit + fsync. Writes serialize through a
  // single leader; reads are served from the API server watch cache.
  Duration etcd_persist_latency = MillisecondsF(4.0);
  // Group commit: up to this many writes share one fsync window.
  int etcd_batch = 8;
  // Latency for delivering one watch notification to a subscriber.
  Duration watch_delivery_latency = MillisecondsF(1.0);
  // Client-side per-attempt request deadline: a request sent at a dead
  // (crashed, not-yet-restarted) API server hangs until this expires,
  // then fails with kDeadlineExceeded (client-go's request timeout).
  Duration api_request_deadline = Seconds(10);
  // How long a broken watch / failed relist waits before the informer
  // tries to re-establish the stream (client-go reflector backoff).
  Duration watch_retry_backoff = Seconds(1);
  // APF (API priority & fairness, KEP-1040): how many requests one API
  // server admits into service concurrently; excess requests queue
  // per-flow (flow = client identity) and dispatch round-robin across
  // flows. 0 disables admission control entirely — the default, so
  // every pre-APF trace stays byte-identical.
  int apf_seats = 0;

  // --- client-side rate limits (client-go token bucket) -----------------
  // Stock kube-controller-manager defaults: 20 QPS / 30 burst. The
  // paper's §2.2 explains why production clusters rarely dare raise
  // them much (API server/etcd stability); the rate-limit-sensitivity
  // ablation bench sweeps these.
  double controller_qps = 20.0;
  double controller_burst = 30.0;
  // kube-scheduler ships with higher defaults (50/100).
  double scheduler_qps = 50.0;
  double scheduler_burst = 100.0;
  // Kubelets keep their (lower) defaults: they are per-node, so their
  // aggregate throughput scales with the cluster (§2.1 step 5).
  double kubelet_qps = 10.0;
  double kubelet_burst = 20.0;

  // --- controller internals ---------------------------------------------
  // Base reconcile cost per work item (queue pop, cache lookup, logic).
  Duration reconcile_base = MicrosecondsF(100);
  // Scheduler: filtering/scoring cost per candidate node per pod — this
  // is what makes the Scheduler stage grow with M in Fig. 11.
  Duration scheduler_per_node_scan = Nanoseconds(120);
  // Extra per-pod cost of the scheduler beyond node scanning (plugin
  // chain, binding bookkeeping).
  Duration scheduler_per_pod = MillisecondsF(1.0);

  // --- sandbox managers ---------------------------------------------------
  // Stock Kubelet + containerd cold start: sandbox creation, container
  // start, and the first readiness-probe pass (probes tick at 1 s).
  Duration kubelet_cold_start = MillisecondsF(800.0);
  // Concurrent sandbox creations a node can do at once.
  int kubelet_startup_concurrency = 10;
  // Stopping a container (SIGKILL + cgroup/netns teardown fast path) —
  // on the synchronous-preemption critical path (§6.3).
  Duration kubelet_terminate = MillisecondsF(5.0);
  // Dirigent's lean sandbox manager (the paper's K8s+/Kd+ variants).
  Duration dirigent_cold_start = MillisecondsF(15.0);
  int dirigent_startup_concurrency = 8;

  // --- KubeDirect ---------------------------------------------------------
  // Cost of converting a KdMessage to/from a cached API object
  // (dynamic materialization, §3.2) — in-memory attribute assembly.
  Duration kd_materialize = MicrosecondsF(20);
  // Per-message handling cost at each hop (decode + enqueue).
  Duration kd_message_process = MicrosecondsF(30);
  // How many KdMessages one link-level batch may carry (§3.2
  // "KUBEDIRECT can further reduce the message passing overhead by
  // batching messages"). 1 disables batching (ablation).
  int kd_batch = 64;
  // How long the egress waits to fill a batch before flushing anyway.
  Duration kd_batch_window = MicrosecondsF(400);
  // Reconnect backoff for the handshake protocol (initial; doubles up
  // to 64x).
  Duration kd_reconnect_backoff = MillisecondsF(10);
  // Fig. 14 ablation: ship full API objects as literals instead of
  // pointer-compressed deltas ("naive direct message passing").
  bool kd_naive_full_objects = false;

  // --- pod discovery (§5) ---------------------------------------------
  // K8s path: Endpoints controller batches pod changes and issues a
  // (rate-limited) Endpoints API write; kube-proxies learn via watch.
  Duration endpoints_batch_window = MillisecondsF(100.0);
  // Kd path: the Endpoints controller streams endpoints directly.
  Duration kd_endpoint_stream_latency = MillisecondsF(1.0);
  // Availability extension (default off so the stock Kd traces are
  // unchanged): Kubelets additionally stream "endpoint up/down" for
  // ready pods straight to the Endpoints controller over the network,
  // so Pod discovery keeps flowing while the API server is down — the
  // paper's availability argument (§7) made measurable by
  // bench_outage.
  bool kd_direct_endpoint_publish = false;

  // Dirigent clean-slate control plane: direct RPC to its sandbox
  // managers, centralized in-memory state.
  Duration dirigent_rpc_latency = MicrosecondsF(500);

  // Presets -----------------------------------------------------------------
  // Stock-Kubernetes-flavoured model (used by every benchmark).
  static CostModel Default() { return CostModel{}; }
};

}  // namespace kd
