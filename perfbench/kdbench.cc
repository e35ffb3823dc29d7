// kdbench: one repetition of one workload of the repository benchmark.
//
// It drives the simulator only through its public entry points
// (cluster::Cluster, faas::Platform, trace::AzureTrace), checks the
// outputs, and prints one JSON object on stdout: the effective config,
// the correctness checks, the end-to-end metrics of both clocks, and
// every per-layer metric. perfbench/run.py repeats it in fresh
// processes and aggregates the repetitions; perfbench/METRICS.md maps
// each metric to its layer and workload.
//
//   kdbench --workload kd-upscale|kn-kd-trace|kn-k8s-trace --seed N
//           [--trace 0|1] [--size full|tiny] [--trace-out FILE]
//           [--clip-seed N] [--unreachable]
//
// The traces replay the clip ChooseClip picks for the seed, or, with
// --clip-seed, the clip of that seed (run.py passes the first
// repetition's choice to the others, since choosing takes seconds).
//
// Per-layer numbers come from three places outside the program: spans
// around this file's calls into each layer (traced runs only), the
// engine's trace hook (traced runs only), and the counters the layers
// export. Counters are restricted to the measured phase by snapshotting
// them after set-up and subtracting.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "faas/backend.h"
#include "faas/platform.h"
#include "trace/azure.h"

namespace kd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  controllers::Mode mode = controllers::Mode::kKd;
  int nodes = 0;
  Duration warmup = 0;
  // kd-upscale: `pods` pods split by the seed over `functions`.
  int pods = 0;
  int functions = 0;
  Duration deadline = 0;
  // Traces: the clip replayed, and the drain window after it.
  bool replay = false;
  trace::TraceConfig trace;
  Duration drain = 0;
  // ChooseClip: the instance starts it aims for, and the clip seeds it
  // tried with their starts.
  std::uint64_t starts_target = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> candidates;
};

// The benchmark's poll cadence: the 5 ms simulated tick RunUpscale and
// Cluster::RunUntil use.
constexpr Duration kPollTick = Milliseconds(5);
// How often the trace drain checks for outstanding requests.
constexpr Duration kDrainStep = Seconds(30);
// The longest single engine call; the speed gauge is read between calls.
constexpr Duration kSlice = Seconds(1);
// Clips a trace seed chooses from.
constexpr int kClipCandidates = 8;
// Every pod's CPU request.
constexpr std::int64_t kPodCpuMilli = 250;

// Instances the Knative policy starts for the clip on the clean-slate
// Dirigent backend (an in-memory control plane, no API server) over the
// clip and two minutes after it: a replay of the faas layer alone, about
// 0.3 s for the full clip. Over 35 clips it tracked the cold starts of
// the Kn/Kd cluster with a correlation of 0.99, and those set most of a
// replay's host cost.
std::uint64_t ProbeInstanceStarts(const trace::TraceConfig& config,
                                  int nodes) {
  const trace::AzureTrace clip = trace::AzureTrace::Generate(config);
  sim::Engine engine;
  const CostModel cost = CostModel::Default();
  faas::DirigentBackend backend(engine, cost, nodes);
  faas::Platform platform(engine, backend, faas::PolicyParams::Knative());
  std::vector<std::string> names;
  for (int f = 0; f < clip.num_functions(); ++f) {
    faas::FunctionSpec spec;
    spec.name = clip.FunctionName(f);
    spec.cpu_milli = kPodCpuMilli;
    platform.RegisterFunction(spec);
    names.push_back(spec.name);
  }
  platform.Start();
  engine.RunFor(Milliseconds(500));
  const Time base = engine.now();
  for (const trace::TraceEvent& e : clip.events()) {
    engine.ScheduleAt(base + e.at, [&platform, &names, &e] {
      platform.Invoke(names[static_cast<std::size_t>(e.function)],
                      e.duration);
    });
  }
  engine.RunUntil(base + config.length + Minutes(2));
  return backend.instances_started();
}

bool MakeWorkload(const std::string& name, bool tiny, Workload* w) {
  w->name = name;
  if (name == "kd-upscale") {
    // At M=1500 the per-pod terms that grow with M already dominate, and
    // one repetition (~2 s) is short enough for ~25 in a run.
    w->mode = controllers::Mode::kKd;
    w->nodes = tiny ? 40 : 1500;
    w->pods = w->nodes;  // one pod per node
    w->functions = 4;
    w->warmup = Milliseconds(200);
    w->deadline = tiny ? Seconds(60) : Minutes(5);
    return true;
  }
  if (name != "kn-kd-trace" && name != "kn-k8s-trace") return false;
  w->mode = name == "kn-kd-trace" ? controllers::Mode::kKd
                                  : controllers::Mode::kK8s;
  w->replay = true;
  w->nodes = tiny ? 8 : 80;
  w->warmup = Milliseconds(500);
  w->drain = tiny ? Minutes(5) : Minutes(30);
  w->trace.num_functions = tiny ? 10 : 300;
  w->trace.length = tiny ? Minutes(1) : Minutes(15);
  // Half the rate of the 84k-invocation clip: there, Kn/K8s falls into a
  // runaway backlog on some seeds (2x the host time and 3x the memory),
  // and a Kn/Kd repetition takes ~4 s instead of ~6 s.
  w->trace.target_invocations = tiny ? 300 : 42'000;
  // Correlated cold bursts as in bench_e2e_knative (Fig. 12).
  w->trace.burst_function_fraction = 0.12;
  w->trace.burst_invocations_per_function = 2;
  // The median of ProbeInstanceStarts over clip seeds 1-200 (tiny:
  // 1-400) at these sizes.
  w->starts_target = tiny ? 36 : 6221;
  return true;
}

// Clips drawn for different seeds differ in their cold starts, and a
// replay's host time with them, by ±4% (interquartile range). So a seed
// stands for the clip, among clip seeds kClipCandidates·seed to
// kClipCandidates·seed + kClipCandidates − 1, whose probed instance
// starts lie nearest the workload's target: the inputs change with the
// seed, the work hardly.
void ChooseClip(std::uint64_t seed, Workload* w) {
  trace::TraceConfig c = w->trace;
  std::uint64_t best = 0;
  for (int i = 0; i < kClipCandidates; ++i) {
    c.seed = seed * kClipCandidates + static_cast<std::uint64_t>(i);
    const std::uint64_t starts = ProbeInstanceStarts(c, w->nodes);
    const auto distance = [w](std::uint64_t n) {
      return n > w->starts_target ? n - w->starts_target
                                  : w->starts_target - n;
    };
    if (i == 0 || distance(starts) < distance(best)) {
      w->trace.seed = c.seed;
      best = starts;
    }
    w->candidates.emplace_back(c.seed, starts);
  }
}

// Every input a run depends on is set here; nothing is read from the
// environment (ClusterConfig's defaults would read KD_SHARDS/KD_LANES).
cluster::ClusterConfig MakeClusterConfig(const Workload& w) {
  cluster::ClusterConfig c;
  c.mode = w.mode;
  c.num_nodes = w.nodes;
  c.realistic_pod_template = w.replay;  // kd-upscale: minimal template
  c.num_shards = 1;
  c.lane_groups = 1;
  c.lane_threads = 1;
  return c;
}

// `pods` in even shares over `functions`, each cut moved by a seeded
// amount of up to 5% of a share: the seed changes the split but hardly
// the host work, which grows with the square of a function's pod count.
std::vector<int> SplitPods(int pods, int functions, std::uint64_t seed) {
  Rng rng(seed);
  const int share = pods / functions;
  const int jitter = std::max(1, share / 20);
  std::vector<int> split;
  int prev = 0;
  for (int f = 1; f < functions; ++f) {
    const int cut = f * share - jitter +
                    static_cast<int>(rng.UniformInt(
                        static_cast<std::uint64_t>(2 * jitter + 1)));
    split.push_back(cut - prev);
    prev = cut;
  }
  split.push_back(pods - prev);
  return split;
}

// --- tracing ----------------------------------------------------------------

// Log-linear histogram of nanosecond durations: 32 sub-buckets per
// power of two (about 3% resolution) in fixed memory.
class Histogram {
 public:
  void Add(std::int64_t ns) {
    const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
    ++buckets_[Index(v)];
    ++count_;
    sum_ += v;
    max_ = std::max(max_, v);
  }
  double sum_s() const { return static_cast<double>(sum_) * 1e-9; }
  double max() const { return static_cast<double>(max_); }
  // Nearest-rank quantile, reported as its bucket's midpoint.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, q * static_cast<double>(count_) + 0.5));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) return std::min(Midpoint(i), max());
    }
    return max();
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSub = 1u << kSubBits;

  static std::size_t Index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int e = static_cast<int>(std::bit_width(v)) - 1;
    const int shift = e - kSubBits;
    return static_cast<std::size_t>(2 * kSub +
                                    static_cast<std::uint64_t>(e - kSubBits - 1) * kSub +
                                    ((v >> shift) - kSub));
  }
  static double Midpoint(std::size_t i) {
    if (i < 2 * kSub) return static_cast<double>(i);
    const std::size_t k = i - 2 * kSub;
    const int shift = static_cast<int>(k / kSub) + 1;
    const std::uint64_t lower = (kSub + k % kSub) << shift;
    return static_cast<double>(lower) +
           static_cast<double>(std::uint64_t{1} << shift) / 2;
  }

  std::array<std::uint64_t, 2 * kSub + 60 * kSub> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// Host-time spans around this file's calls into each layer: name, start,
// end and parent. Kept in memory; WriteChromeTrace emits them at exit
// as Chrome trace-event JSON. Disabled, Begin/End cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(
        Span{name, NsBetween(origin_, Clock::now()), -1, parent, -1});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns =
        NsBetween(origin_, Clock::now());
    open_.pop_back();
  }
  // A span measured elsewhere (the slowest Platform::Invoke).
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              std::int64_t request) {
    if (!enabled_) return;
    spans_.push_back(Span{name, NsBetween(origin_, start),
                          NsBetween(origin_, end),
                          open_.empty() ? -1 : open_.back(), request});
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"request\": %lld}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t request;  // invocation index, -1 outside a request
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// Times each event as the gap between consecutive trace-hook fires
// within one engine call; the call's last event ends when it returns.
class EventTimer {
 public:
  void Attach(sim::Engine& engine) {
    engine.set_trace_hook(
        [this](Time, std::uint64_t, sim::EventId) { Fire(); });
  }
  void CallReturned() {
    if (open_) hist_.Add(NsBetween(last_, Clock::now()));
    open_ = false;
  }
  const Histogram& histogram() const { return hist_; }

 private:
  void Fire() {
    const Clock::time_point now = Clock::now();
    if (open_) hist_.Add(NsBetween(last_, now));
    last_ = now;
    open_ = true;
  }
  Histogram hist_;
  Clock::time_point last_;
  bool open_ = false;
};

// --- counters ---------------------------------------------------------------

// The program's own totals that run across the set-up/measured boundary.
// The cluster recorder is cleared after set-up as RunUpscale does; the
// API-server shard recorders, the network, the engine and the faas
// layer keep lifetime totals, so the measured phase is after - before.
struct Totals {
  std::map<std::string, std::int64_t> api;  // summed over shards
  std::vector<double> api_call_ms;          // sorted multiset
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t queued_starts = 0;
  std::uint64_t scale_calls = 0;
};

Totals Capture(cluster::Cluster& cluster, faas::Platform* platform) {
  Totals t;
  apiserver::ControlPlane& plane = cluster.apiserver();
  for (int i = 0; i < plane.num_shards(); ++i) {
    const MetricsRecorder& m = plane.shard(i).metrics();
    for (const auto& [name, v] : m.counters()) t.api[name] += v;
    if (m.HasSample("api_call_latency")) {
      const auto& v = m.GetSample("api_call_latency").values();
      t.api_call_ms.insert(t.api_call_ms.end(), v.begin(), v.end());
    }
  }
  std::sort(t.api_call_ms.begin(), t.api_call_ms.end());
  t.net_messages = cluster.network().total_messages();
  t.net_bytes = cluster.network().total_bytes();
  t.events = cluster.engine().processed_events();
  if (platform != nullptr) {
    t.requests = platform->gateway().total_invocations();
    t.completed = platform->gateway().records().size();
    t.queued_starts = platform->gateway().queued_starts();
    t.scale_calls = platform->policy().scale_calls();
  }
  return t;
}

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  bool exact;  // simulated or counted: must repeat bit-for-bit
};

class Results {
 public:
  void E2e(const std::string& name, double v, const char* unit, bool exact) {
    e2e_.push_back(Metric{name, v, unit, exact});
  }
  void Layer(const std::string& name, double v, const char* unit,
             bool exact) {
    layers_.push_back(Metric{name, v, unit, exact});
  }
  void Check(const std::string& name, bool ok) { checks_.emplace_back(name, ok); }
  bool ok() const {
    for (const auto& [name, ok] : checks_) {
      if (!ok) return false;
    }
    return true;
  }

  std::string config;
  std::string clip_choice = "null";
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string trace_file;

  void Print(std::FILE* out) const {
    std::fprintf(out, "{\"config\": %s, \"clip_choice\": %s, \"ok\": %s, "
                      "\"attempted\": %llu, \"failed\": %llu, "
                      "\"trace_file\": \"%s\", \"checks\": {",
                 config.c_str(), clip_choice.c_str(), ok() ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed), trace_file.c_str());
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      std::fprintf(out, "%s\"%s\": %s", i == 0 ? "" : ", ",
                   checks_[i].first.c_str(),
                   checks_[i].second ? "true" : "false");
    }
    std::fprintf(out, "}, \"e2e\": %s, \"layers\": %s}\n",
                 MetricsJson(e2e_).c_str(), MetricsJson(layers_).c_str());
  }

 private:
  static std::string MetricsJson(const std::vector<Metric>& metrics) {
    std::string out = "[";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      out += StrFormat("%s[\"%s\", %.17g, \"%s\", %s]", i == 0 ? "" : ", ",
                       m.name.c_str(), m.value, m.unit,
                       m.exact ? "true" : "false");
    }
    return out + "]";
  }

  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, bool>> checks_;
};

// Peak resident set of this process image. VmHWM, unlike ru_maxrss,
// starts afresh at exec, so the parent's memory at fork does not count.
// It includes the speed gauge's few MB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Gauges the machine's current speed. A shared host changes speed by
// tens of percent from one second to the next and by up to 2x over tens
// of minutes, so every host time is scaled by a fixed workload of the
// benchmark's own, run in short chunks between the engine calls of the
// measured phase, on the same core and at the same moments as the
// program: string-keyed map churn and a binary heap over a few MB, the
// operations the simulator's hot paths are made of. It calls no code of
// the program under test, so no change to the program moves it.
class Gauge {
 public:
  // One chunk's typical host seconds on the machine the benchmark was
  // tuned on; scaled host times are stated at that speed.
  static constexpr double kNominalChunkS = 0.003;
  // How much more the simulator's host time moves than the gauge's when
  // the machine's speed changes. On the tuning host, over 115 repetitions
  // of identical work, log(run time) against log(chunk time) had a slope
  // of 1.5-1.6 (correlation 0.86-0.89): the simulator's large code and
  // data footprint suffers more from a busy neighbour than this small
  // loop does. Scaled by the chunk time to this power rather than to 1,
  // repetitions spread less (coefficient of variation 6.3-6.5% instead
  // of 7.3-7.8%; 13% unscaled).
  static constexpr double kSensitivity = 1.5;
  // Run a chunk once this much host time has passed since the last one.
  static constexpr double kEveryS = 0.04;

  // Starts in its steady state: half the keys present, the heap full.
  Gauge() {
    for (std::uint64_t k = 0; k < kKeys; k += 2) map_.emplace(Key(k), k);
    for (std::uint64_t k = 0; k < kHeap; ++k) heap_.push(Next() % kValues);
    last_ = Clock::now();
  }

  // A timed chunk if one is due; returns the host seconds it took.
  double MaybeChunk() {
    const Clock::time_point t = Clock::now();
    if (SecondsBetween(last_, t) < kEveryS) return 0;
    return Chunk(t);
  }
  double Chunk() { return Chunk(Clock::now()); }

  int chunks() const { return chunks_; }
  // Mean host seconds per chunk so far.
  double chunk_s() const { return Ratio(seconds_, chunks_); }
  // Host seconds at the nominal speed.
  double Scale(double host_s) const {
    return chunks_ == 0
               ? host_s
               : host_s * std::pow(kNominalChunkS / chunk_s(), kSensitivity);
  }
  std::uint64_t checksum() const { return sum_ + map_.size() + heap_.size(); }

 private:
  static constexpr int kChunkOps = 1000;
  static constexpr std::uint64_t kKeys = 100'000;
  static constexpr std::uint64_t kHeap = kKeys / 4;
  static constexpr std::uint64_t kValues = 1'000'003;

  std::uint64_t Next() {
    x_ ^= x_ << 13;  // xorshift64
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  static std::string Key(std::uint64_t k) {
    return StrFormat("pod/fn-%04llu-%08llu",
                     static_cast<unsigned long long>(k % 300),
                     static_cast<unsigned long long>(k));
  }

  double Chunk(Clock::time_point t) {
    for (int i = 0; i < kChunkOps; ++i) {
      const std::uint64_t x = Next();
      // A key present is erased, one absent inserted: the map stays
      // about half full.
      auto [it, inserted] = map_.emplace(Key(x % kKeys), x);
      if (!inserted) {
        sum_ += it->second;
        map_.erase(it);
      }
      heap_.push(x % kValues);
      sum_ += heap_.top();
      heap_.pop();
    }
    last_ = Clock::now();
    const double s = SecondsBetween(t, last_);
    seconds_ += s;
    ++chunks_;
    return s;
  }

  std::map<std::string, std::uint64_t> map_;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap_;
  std::uint64_t x_ = 88172645463325252ull;
  std::uint64_t sum_ = 0;
  Clock::time_point last_;
  double seconds_ = 0;
  int chunks_ = 0;
};

// --- one run ------------------------------------------------------------------

class Run {
 public:
  Run(const Workload& w, std::uint64_t seed, bool traced, bool unreachable)
      : w_(w), seed_(seed), unreachable_(unreachable), tracer_(traced) {}

  Results Execute(const std::string& trace_out) {
    const Clock::time_point t0 = Clock::now();
    SetUp();
    setup_s_ = SecondsBetween(t0, Clock::now());
    gauge_.Chunk();  // a reading at the start of the measured phase
    if (tracer_.enabled()) timer_.Attach(*engine_);
    const Clock::time_point t1 = Clock::now();
    if (w_.replay) {
      Replay();
    } else {
      Upscale();
    }
    run_s_ = SecondsBetween(t1, Clock::now()) - gauge_s_;
    gauge_.Chunk();  // and one at its end
    engine_->set_trace_hook(nullptr);
    // Printing the checksum keeps the gauge's work from being optimized away.
    std::fprintf(stderr, "gauge checksum %llu\n",
                 static_cast<unsigned long long>(gauge_.checksum()));
    Collect();
    TearDown();
    Finish();
    if (tracer_.enabled() && !trace_out.empty()) {
      if (!tracer_.WriteChromeTrace(trace_out)) {
        std::fprintf(stderr, "kdbench: cannot write %s\n", trace_out.c_str());
        std::exit(1);
      }
      results_.trace_file = trace_out;
    }
    return std::move(results_);
  }

 private:
  std::int64_t CpuMilli() const {
    // An unreachable target: pods that fit on no node.
    return unreachable_ ? 2 * MakeClusterConfig(w_).node_cpu_milli
                        : kPodCpuMilli;
  }

  void SetUp() {
    if (w_.replay) {
      ScopedSpan span(tracer_, "Generate");
      const Clock::time_point t = Clock::now();
      trace_ = std::make_unique<trace::AzureTrace>(
          trace::AzureTrace::Generate(w_.trace));
      generate_s_ = SecondsBetween(t, Clock::now());
      for (int f = 0; f < trace_->num_functions(); ++f) {
        names_.push_back(trace_->FunctionName(f));
      }
    } else {
      for (int f = 0; f < w_.functions; ++f) {
        names_.push_back(StrFormat("fn-%04d", f));
      }
      split_ = SplitPods(w_.pods, w_.functions, seed_);
    }
    engine_ = std::make_unique<sim::Engine>();
    engine_->SeedRng(seed_);
    {
      ScopedSpan span(tracer_, "Cluster");
      const Clock::time_point t = Clock::now();
      cluster_ = std::make_unique<cluster::Cluster>(*engine_,
                                                    MakeClusterConfig(w_));
      build_s_ = SecondsBetween(t, Clock::now());
    }
    {
      ScopedSpan span(tracer_, "Boot");
      const Clock::time_point t = Clock::now();
      cluster_->Boot();
      boot_s_ = SecondsBetween(t, Clock::now());
    }
    if (w_.replay) {
      backend_ = std::make_unique<faas::ClusterBackend>(*cluster_);
      platform_ = std::make_unique<faas::Platform>(
          *engine_, *backend_, faas::PolicyParams::Knative());
    }
    {
      const Clock::time_point t = Clock::now();
      for (const std::string& name : names_) {
        ScopedSpan span(tracer_, "RegisterFunction");
        if (w_.replay) {
          faas::FunctionSpec spec;
          spec.name = name;
          spec.cpu_milli = CpuMilli();
          platform_->RegisterFunction(spec);
        } else {
          cluster_->RegisterFunction(name, CpuMilli());
        }
      }
      register_s_ = SecondsBetween(t, Clock::now());
    }
    if (w_.replay) {
      ScopedSpan span(tracer_, "Platform::Start");
      const Clock::time_point t = Clock::now();
      platform_->Start();
      start_s_ = SecondsBetween(t, Clock::now());
    }
    {
      ScopedSpan span(tracer_, "RunFor");
      engine_->RunFor(w_.warmup);  // informers observe the registrations
    }
    // Boot-time handshakes are the one set-up cost read here: the
    // measured phase opens no new links.
    MetricsRecorder& m = cluster_->metrics();
    handshakes_ = m.GetCount("kd_handshakes");
    handshake_p99_ms_ = m.HasSample("kd_handshake_latency")
                            ? m.GetSample("kd_handshake_latency").P99()
                            : 0;
    m.Clear();
    for (int i = 0; i < cluster_->apiserver().num_shards(); ++i) {
      cluster_->apiserver().shard(i).metrics().ResetCounter("api.inflight_max");
    }
    before_ = Capture(*cluster_, platform_.get());
  }

  // Every engine call of the measured phase goes through here, in slices
  // of at most kSlice with the gauge read between them.
  void Advance(Time until, const char* what) {
    while (engine_->now() < until) {
      {
        ScopedSpan span(tracer_, what);
        const Clock::time_point t = Clock::now();
        engine_->RunUntil(std::min(until, engine_->now() + kSlice));
        timer_.CallReturned();
        sim_run_s_ += SecondsBetween(t, Clock::now());
      }
      gauge_s_ += gauge_.MaybeChunk();
    }
  }

  std::size_t Poll() {
    ++poll_calls_;
    if (!tracer_.enabled()) return cluster_->TotalReadyPods();
    ScopedSpan span(tracer_, "TotalReadyPods");
    const Clock::time_point t = Clock::now();
    const std::size_t n = cluster_->TotalReadyPods();
    poll_s_ += SecondsBetween(t, Clock::now());
    return n;
  }

  // ScaleTo every function, then the poll loop of Cluster::RunUntil:
  // the same engine calls, with the poll and the engine timed apart.
  void Upscale() {
    const Time start = engine_->now();
    for (std::size_t f = 0; f < names_.size(); ++f) {
      ScopedSpan span(tracer_, "ScaleTo");
      cluster_->ScaleTo(names_[f], split_[f]);
    }
    const Time limit = start + w_.deadline;
    const auto target = static_cast<std::size_t>(w_.pods);
    std::size_t ready = 0;
    while (true) {
      const std::size_t now_ready = Poll();
      // Pods seen Running at this poll became ready within the last tick.
      for (; ready < now_ready; ++ready) {
        sched_ms_.Add(ToMillis(engine_->now() - start));
      }
      if (now_ready >= target || engine_->now() >= limit) break;
      Advance(std::min(limit, engine_->now() + kPollTick), "RunUntil");
    }
    sim_e2e_ = engine_->now() - start;
  }

  // Open loop in simulated time: each arrival fires at its due time
  // whatever has completed, so the generator is never late.
  void Replay() {
    const Time base = engine_->now();
    for (std::size_t i = 0; i < trace_->events().size(); ++i) {
      engine_->ScheduleAt(base + trace_->events()[i].at,
                          [this, i] { Invoke(i); });
    }
    Advance(base + w_.trace.length, "RunUntil");
    // Drain: until no request is queued or executing, checked every
    // kDrainStep, for at most w_.drain after the clip.
    const Time cap = engine_->now() + w_.drain;
    while (engine_->now() < cap && Outstanding() > 0) {
      Advance(std::min(cap, engine_->now() + kDrainStep), "RunUntil");
    }
    replay_end_ = engine_->now();
    replay_base_ = base;
  }

  // Requests queued or executing at the gateway.
  std::uint64_t Outstanding() const {
    std::uint64_t n = 0;
    for (const std::string& name : names_) {
      n += static_cast<std::uint64_t>(platform_->gateway().Demand(name));
    }
    return n;
  }

  void Invoke(std::size_t i) {
    const trace::TraceEvent& ev = trace_->events()[i];
    ++invoke_calls_;
    if (!tracer_.enabled()) {
      platform_->Invoke(names_[static_cast<std::size_t>(ev.function)],
                        ev.duration);
      return;
    }
    const Clock::time_point t = Clock::now();
    platform_->Invoke(names_[static_cast<std::size_t>(ev.function)],
                      ev.duration);
    const Clock::time_point end = Clock::now();
    const std::int64_t ns = NsBetween(t, end);
    invoke_hist_.Add(ns);
    if (ns > slowest_invoke_ns_) {
      slowest_invoke_ns_ = ns;
      slowest_invoke_ = {t, end, static_cast<std::int64_t>(i)};
    }
  }

  void Collect() {
    const Totals after = Capture(*cluster_, platform_.get());
    MetricsRecorder& m = cluster_->metrics();
    auto api = [&](const char* name) {
      return static_cast<double>(after.api.count(name) ? after.api.at(name) : 0) -
             static_cast<double>(before_.api.count(name) ? before_.api.at(name) : 0);
    };
    auto count = [&](const std::string& name) {
      return static_cast<double>(m.GetCount(name));
    };
    auto quantile = [&](const char* name, double q) {
      return m.HasSample(name) ? m.GetSample(name).Quantile(q) : 0.0;
    };
    // Counters summed over every component whose name ends in `suffix`.
    auto sum_suffix = [&](const std::string& prefix, const std::string& suffix) {
      double total = 0;
      for (const auto& [name, v] : m.counters()) {
        if (name.starts_with(prefix) && name.ends_with(suffix) &&
            name.find(".shard") == std::string::npos) {
          total += static_cast<double>(v);
        }
      }
      return total;
    };

    const double events = static_cast<double>(after.events - before_.events);
    Layer("sim.events", events, "count", true);
    Layer("sim.run_s", sim_run_s_, "s", false);
    Layer("sim.host_ns_per_event", Ratio(sim_run_s_ * 1e9, events), "ns",
          false);
    const Histogram& ev = timer_.histogram();
    Layer("sim.event_host_ns.p50", ev.Quantile(0.5), "ns", false);
    Layer("sim.event_host_ns.p99", ev.Quantile(0.99), "ns", false);
    Layer("sim.event_host_ns.max", ev.max(), "ns", false);

    Layer("cluster.build_s", build_s_, "s", false);
    Layer("cluster.boot_s", boot_s_, "s", false);
    Layer("cluster.register_s", register_s_, "s", false);
    Layer("cluster.poll_s", poll_s_, "s", false);
    Layer("cluster.poll_calls", static_cast<double>(poll_calls_), "count",
          true);

    for (const char* c : {"autoscaler", "deployment", "replicaset",
                          "scheduler", "kubelet", "endpoints"}) {
      Layer(StrFormat("%s.span_s", c), ToSeconds(m.GetSpan(c)), "s", true);
    }
    Duration kubelet_busy = 0;
    std::int64_t kubelet_depth = 0;
    for (int i = 0; i < w_.nodes; ++i) {
      const std::string loop = "kubelet-" + cluster::Cluster::NodeName(i);
      kubelet_busy += m.GetBusy(loop + ".reconcile");
      kubelet_depth = std::max(kubelet_depth,
                               m.GetCount(loop + ".queue_depth_max"));
    }
    for (const char* c : {"autoscaler", "deployment", "replicaset",
                          "scheduler", "endpoints", "kubeproxy", "kubelet"}) {
      const bool kubelet = std::string(c) == "kubelet";
      Layer(StrFormat("%s.reconcile_busy_s", c),
            ToSeconds(kubelet ? kubelet_busy
                              : m.GetBusy(std::string(c) + ".reconcile")),
            "s", true);
      Layer(StrFormat("%s.queue_depth_max", c),
            kubelet ? static_cast<double>(kubelet_depth)
                    : count(std::string(c) + ".queue_depth_max"),
            "count", true);
    }
    Layer("replicaset.pods_created", count("pods_created"), "count", true);
    Layer("replicaset.pods_deleted", count("pods_deleted"), "count", true);
    Layer("kubelet.sandboxes_started", count("sandboxes_started"), "count",
          true);
    Layer("kubelet.pods_published", count("pods_published"), "count", true);
    Layer("kubelet.pods_terminated", count("pods_terminated"), "count", true);
    Layer("kubelet.publish_yield",
          Ratio(count("pods_published"), count("sandboxes_started")), "ratio",
          true);
    Layer("kubelet.pod_ms.p50", quantile("kubelet_pod_latency", 0.5), "ms",
          true);
    Layer("kubelet.pod_ms.p99", quantile("kubelet_pod_latency", 0.99), "ms",
          true);
    Layer("kubelet.sandbox_ready_ms.p99",
          quantile("sandbox_ready_latency", 0.99), "ms", true);

    const double kd_messages = count("kd_messages_sent");
    Layer("kd.messages", kd_messages, "count", true);
    Layer("kd.bytes", count("kd_bytes_sent"), "bytes", true);
    Layer("kd.bytes_per_message", Ratio(count("kd_bytes_sent"), kd_messages),
          "bytes", true);
    Layer("kd.handshakes", static_cast<double>(handshakes_), "count", true);
    Layer("kd.handshake_ms.p99", handshake_p99_ms_, "ms", true);
    Layer("kd.soft_invalidate_orphans", count("kd_soft_invalidate_orphans"),
          "count", true);

    const double writes = api("api_writes");
    Layer("apiserver.writes", writes, "count", true);
    Layer("apiserver.reads", api("api_reads"), "count", true);
    Layer("apiserver.bytes_in", api("api_bytes_in"), "bytes", true);
    Layer("apiserver.bytes_out", api("api_bytes_out"), "bytes", true);
    Layer("apiserver.watch_events", api("watch_events"), "count", true);
    Layer("apiserver.watch_events_per_write",
          Ratio(api("watch_events"), writes), "ratio", true);
    // Reset after set-up, so this is the measured phase's high-water mark.
    Layer("apiserver.inflight_max",
          static_cast<double>(after.api.count("api.inflight_max")
                                  ? after.api.at("api.inflight_max")
                                  : 0),
          "count", true);
    Layer("apiserver.deadline_exceeded", api("api_deadline_exceeded"),
          "count", true);
    Sample call_ms;
    std::vector<double> measured;
    std::set_difference(after.api_call_ms.begin(), after.api_call_ms.end(),
                        before_.api_call_ms.begin(), before_.api_call_ms.end(),
                        std::back_inserter(measured));
    for (double v : measured) call_ms.Add(v);
    Layer("apiserver.call_ms.p50", call_ms.Median(), "ms", true);
    Layer("apiserver.call_ms.p99", call_ms.P99(), "ms", true);
    Layer("apiclient.retries", sum_suffix("client.", ".retries_total"),
          "count", true);
    Layer("apiclient.giveups", sum_suffix("client.", ".giveups_total"),
          "count", true);
    Layer("apiclient.deadline_exceeded",
          sum_suffix("client.", ".deadline_exceeded_total"), "count", true);

    Layer("informer.relists", sum_suffix("informer.", ".relists_total"),
          "count", true);

    Layer("net.messages",
          static_cast<double>(after.net_messages - before_.net_messages),
          "count", true);
    Layer("net.bytes", static_cast<double>(after.net_bytes - before_.net_bytes),
          "bytes", true);

    requests_ = after.requests - before_.requests;
    completed_ = after.completed - before_.completed;
    const auto queued = static_cast<double>(after.queued_starts -
                                            before_.queued_starts);
    Layer("faas.requests", static_cast<double>(requests_), "count", true);
    Layer("faas.completed", static_cast<double>(completed_), "count", true);
    Layer("faas.queued_starts", queued, "count", true);
    Layer("faas.cold_share", Ratio(queued, static_cast<double>(requests_)),
          "ratio", true);
    Layer("faas.scale_calls",
          static_cast<double>(after.scale_calls - before_.scale_calls),
          "count", true);
    Layer("faas.start_s", start_s_, "s", false);
    Layer("faas.invoke_s", invoke_hist_.sum_s(), "s", false);
    Layer("faas.invoke_calls", static_cast<double>(invoke_calls_), "count",
          true);

    Layer("trace.generate_s", generate_s_, "s", false);
    Layer("trace.invocations",
          trace_ ? static_cast<double>(trace_->events().size()) : 0, "count",
          true);

    pods_created_ = count("pods_created");
    if (w_.replay) {
      unfinished_ = Outstanding();
      CollectReplayLatencies();
    } else {
      // The poll sees a pod Running once its write commits; the
      // kubelet counts the publish when the ack lands. Let the acks in
      // flight land before checking, outside the measured phase.
      {
        ScopedSpan span(tracer_, "RunFor");
        engine_->RunFor(Seconds(1));
      }
      pods_published_ = count("pods_published");
      for (std::size_t f = 0; f < names_.size(); ++f) {
        per_function_ok_ = per_function_ok_ &&
                           cluster_->ReadyPodCount(names_[f]) ==
                               static_cast<std::size_t>(split_[f]);
      }
      ready_ = cluster_->TotalReadyPods();
    }
    if (tracer_.enabled() && slowest_invoke_.request >= 0) {
      tracer_.Record("Platform::Invoke (slowest)", slowest_invoke_.start,
                     slowest_invoke_.end, slowest_invoke_.request);
    }
  }

  void CollectReplayLatencies() {
    ScopedSpan span(tracer_, "BuildReport");
    const Clock::time_point t = Clock::now();
    report_ = platform_->BuildReport();
    report_s_ = SecondsBetween(t, Clock::now());
    for (const faas::RequestRecord& r : platform_->gateway().records()) {
      records_ok_ = records_ok_ && r.arrival >= replay_base_ &&
                    r.arrival <= r.started && r.started <= r.completed &&
                    r.completed <= replay_end_;
      sched_ms_.Add(ToMillis(r.SchedulingLatency()));
      last_start_ = std::max(last_start_, r.started);
    }
  }

  void TearDown() {
    ScopedSpan span(tracer_, "Teardown");
    const Clock::time_point t = Clock::now();
    platform_.reset();
    backend_.reset();
    cluster_.reset();
    engine_.reset();
    teardown_s_ = SecondsBetween(t, Clock::now());
  }

  void Finish() {
    Layer("cluster.teardown_s", teardown_s_, "s", false);
    Layer("faas.report_s", report_s_, "s", false);
    Results& r = results_;
    r.config = StrFormat(
        "{\"workload\": \"%s\", \"seed\": %llu, \"mode\": \"%s\", "
        "\"nodes\": %d, \"num_shards\": 1, \"lane_groups\": 1, "
        "\"lane_threads\": 1, \"pod_template\": \"%s\", "
        "\"unreachable\": %s, \"traced\": %s, ",
        w_.name.c_str(), static_cast<unsigned long long>(seed_),
        w_.mode == controllers::Mode::kKd ? "kd" : "k8s", w_.nodes,
        w_.replay ? "realistic" : "minimal", unreachable_ ? "true" : "false",
        tracer_.enabled() ? "true" : "false");
    if (!w_.candidates.empty()) {
      r.clip_choice = StrFormat("{\"target_starts\": %llu, \"tried\": [",
                                static_cast<unsigned long long>(w_.starts_target));
      for (std::size_t i = 0; i < w_.candidates.size(); ++i) {
        r.clip_choice += StrFormat(
            "%s[%llu, %llu]", i == 0 ? "" : ", ",
            static_cast<unsigned long long>(w_.candidates[i].first),
            static_cast<unsigned long long>(w_.candidates[i].second));
      }
      r.clip_choice += "]}";
    }
    if (w_.replay) {
      r.config += StrFormat(
          "\"clip_seed\": %llu, \"trace_functions\": %d, "
          "\"trace_minutes\": %.1f, "
          "\"trace_target\": %llu, \"rate_sigma\": %.2f, "
          "\"burst_fraction\": %.2f, \"drain_cap_min\": %.1f, "
          "\"drain_step_s\": %.0f}",
          static_cast<unsigned long long>(w_.trace.seed),
          w_.trace.num_functions,
          ToSeconds(w_.trace.length) / 60.0,
          static_cast<unsigned long long>(w_.trace.target_invocations),
          w_.trace.rate_sigma, w_.trace.burst_function_fraction,
          ToSeconds(w_.drain) / 60.0, ToSeconds(kDrainStep));
    } else {
      r.config += StrFormat(
          "\"pods\": %d, \"split\": \"%s\", \"poll_tick_ms\": %.0f, "
          "\"deadline_s\": %.0f}",
          w_.pods, SplitString().c_str(), ToMillis(kPollTick),
          ToSeconds(w_.deadline));
    }

    double sim_e2e_s = 0;
    if (w_.replay) {
      r.attempted = trace_->events().size();
      r.failed = unfinished_;
      sim_e2e_s = ToSeconds(last_start_ - replay_base_);
      r.Check("requests_equal_arrivals", requests_ == r.attempted);
      r.Check("completed_plus_failed_equal_requests",
              completed_ + unfinished_ == requests_);
      r.Check("records_equal_completed",
              report_.completed_requests == completed_ &&
                  report_.total_requests == requests_);
      r.Check("records_ordered_in_window", records_ok_);
      // A request unfinished at the end of the drain misses every
      // latency limit: it ranks above every finished one.
      const double never = ToMillis(replay_end_ - replay_base_);
      for (std::uint64_t i = 0; i < unfinished_; ++i) sched_ms_.Add(never);
    } else {
      r.attempted = static_cast<std::uint64_t>(w_.pods);
      r.failed = r.attempted - std::min<std::uint64_t>(ready_, r.attempted);
      sim_e2e_s = ToSeconds(sim_e2e_);
      r.Check("running_pods_equal_target",
              ready_ == static_cast<std::size_t>(w_.pods));
      r.Check("pods_published_equal_target",
              pods_published_ == static_cast<double>(w_.pods));
      r.Check("per_function_pods_equal_split", per_function_ok_);
      // Pods never seen Running rank above every ready one.
      for (std::uint64_t i = 0; i < r.failed; ++i) {
        sched_ms_.Add(ToMillis(w_.deadline));
      }
    }

    r.E2e("run_s", gauge_.Scale(run_s_), "s", false);
    r.E2e("setup_s", gauge_.Scale(setup_s_), "s", false);
    r.E2e("run_wall_s", run_s_, "s", false);
    r.E2e("setup_wall_s", setup_s_, "s", false);
    r.E2e("gauge_chunk_s", gauge_.chunk_s(), "s", false);
    r.E2e("gauge_chunks", gauge_.chunks(), "count", false);
    r.E2e("peak_rss_mb", PeakRssMb(), "MB", false);
    r.E2e("sim_e2e_s", sim_e2e_s, "s", true);
    r.E2e("sim_sched_p50_ms", sched_ms_.Median(), "ms", true);
    r.E2e("sim_sched_p99_ms", sched_ms_.P99(), "ms", true);
    r.E2e("sim_cold_starts", pods_created_, "count", true);
    r.E2e("sim_sched_samples", static_cast<double>(sched_ms_.count()),
          "count", true);
    const double p99 = sched_ms_.P99();
    r.E2e("sim_sched_beyond_p99",
          static_cast<double>(std::count_if(
              sched_ms_.values().begin(), sched_ms_.values().end(),
              [p99](double v) { return v > p99; })),
          "count", true);
    for (Metric& m : layers_) r.Layer(m.name, m.value, m.unit, m.exact);
  }

  std::string SplitString() const {
    std::string out;
    for (std::size_t i = 0; i < split_.size(); ++i) {
      out += StrFormat("%s%d", i == 0 ? "" : "+", split_[i]);
    }
    return out;
  }

  void Layer(const std::string& name, double v, const char* unit, bool exact) {
    layers_.push_back(Metric{name, v, unit, exact});
  }

  const Workload& w_;
  const std::uint64_t seed_;
  const bool unreachable_;
  Tracer tracer_;
  EventTimer timer_;
  Gauge gauge_;
  double gauge_s_ = 0;  // host seconds spent in the gauge while measuring
  Results results_;

  std::unique_ptr<trace::AzureTrace> trace_;
  std::vector<std::string> names_;
  std::vector<int> split_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<faas::ClusterBackend> backend_;
  std::unique_ptr<faas::Platform> platform_;
  Totals before_;

  double setup_s_ = 0, run_s_ = 0, generate_s_ = 0, build_s_ = 0,
         boot_s_ = 0, register_s_ = 0, start_s_ = 0, sim_run_s_ = 0,
         poll_s_ = 0, report_s_ = 0, teardown_s_ = 0;
  std::int64_t handshakes_ = 0;
  double handshake_p99_ms_ = 0;
  std::uint64_t poll_calls_ = 0;
  std::uint64_t invoke_calls_ = 0;
  Histogram invoke_hist_;
  std::int64_t slowest_invoke_ns_ = -1;
  struct {
    Clock::time_point start, end;
    std::int64_t request = -1;
  } slowest_invoke_;

  // Per-operation simulated latency from request to start: per pod
  // (ScaleTo -> seen Running) or per invocation (arrival -> started).
  Sample sched_ms_;
  Duration sim_e2e_ = 0;
  std::size_t ready_ = 0;
  bool per_function_ok_ = true;
  double pods_created_ = 0, pods_published_ = 0;
  Time replay_base_ = 0, replay_end_ = 0, last_start_ = 0;
  std::uint64_t requests_ = 0, completed_ = 0, unfinished_ = 0;
  bool records_ok_ = true;
  faas::Report report_;
  std::vector<Metric> layers_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: kdbench --workload kd-upscale|kn-kd-trace|kn-k8s-trace "
               "--seed N [--trace 0|1] [--size full|tiny] [--trace-out FILE] "
               "[--clip-seed N] [--unreachable]\n");
  return 2;
}

}  // namespace
}  // namespace kd::perfbench

int main(int argc, char** argv) {
  using namespace kd::perfbench;
  std::string workload, size = "full", trace_out;
  std::uint64_t seed = 0, clip_seed = 0;
  bool have_seed = false, have_clip_seed = false, traced = false,
       unreachable = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--trace" && has_value) {
      traced = std::string(argv[++i]) == "1";
    } else if (arg == "--size" && has_value) {
      size = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--clip-seed" && has_value) {
      char* end = nullptr;
      clip_seed = std::strtoull(argv[++i], &end, 10);
      have_clip_seed = end != nullptr && *end == '\0';
      if (!have_clip_seed) return Usage();
    } else if (arg == "--unreachable") {
      unreachable = true;
    } else {
      return Usage();
    }
  }
  Workload w;
  if (!have_seed || (size != "full" && size != "tiny") ||
      !MakeWorkload(workload, size == "tiny", &w)) {
    return Usage();
  }
  if (w.replay) {
    if (have_clip_seed) {
      w.trace.seed = clip_seed;
    } else {
      ChooseClip(seed, &w);
    }
  }
  Run run(w, seed, traced, unreachable);
  run.Execute(trace_out).Print(stdout);
  return 0;
}
