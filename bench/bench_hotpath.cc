// Hot-path microbenchmarks for the simulation substrate itself — the
// three paths every figure bench and test grinds through:
//
//   sched    — raw event throughput: K self-rescheduling actors drive
//              the engine's schedule/fire cycle, each delay drawn from
//              the classes the simulator arms its own events with;
//   fanout   — watch fan-out: one ~17 KB pod updated U times with W
//              watchers subscribed; every delivery copies the object
//              and charges its SerializedSize();
//   m4000    — the Fig. 11 emulation wall: a Kd cluster with M=4000
//              fake nodes upscaling one function to 4000 pods, timed in
//              host wall-clock (the simulated result is a fixed
//              property of the model; the wall-clock is what this PR
//              optimizes).
//
// Unlike the figure benches, the numbers here are HOST wall-clock
// throughputs: they track the substrate's implementation cost, not the
// simulated system. Results are appended to BENCH_hotpath.json so the
// perf trajectory across PRs is recorded.
#include <chrono>
#include <cstdio>

#include "apiserver/apiserver.h"
#include "common/rng.h"
#include "harness.h"
#include "model/objects.h"

namespace kd::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- sched: pure schedule/fire throughput ------------------------------

// The delays the simulator arms its events with: each class's share, in
// per mille, of the 649,529 events a seed-1 kn-kd-trace replay arms
// (counted once with a throwaway counter in LaneQueue::Arm; DESIGN.md
// §4b). A delay is uniform within its class.
struct DelayClass {
  std::uint64_t per_mille;
  Duration lo;
  Duration hi;  // inclusive
};
constexpr DelayClass kArmedDelays[] = {
    {65, 0, 0},
    {29, 1, Microseconds(10) - 1},
    {374, Microseconds(10), Microseconds(100) - 1},
    {241, Microseconds(100), Milliseconds(1) - 1},
    {149, Milliseconds(1), Milliseconds(10) - 1},
    {61, Milliseconds(10), Seconds(1) - 1},
    {80, Seconds(1), Seconds(1000) - 1},
};

Duration DrawArmedDelay(Rng& rng) {
  std::uint64_t total = 0;
  for (const DelayClass& c : kArmedDelays) total += c.per_mille;
  std::uint64_t roll = rng.UniformInt(total);
  for (const DelayClass& c : kArmedDelays) {
    if (roll < c.per_mille) return rng.UniformRange(c.lo, c.hi);
    roll -= c.per_mille;
  }
  return 0;  // unreachable: the rolls cover the classes
}

double SchedulingEventsPerSec(int actors, std::uint64_t total_events) {
  sim::Engine engine;
  Rng rng(0xBEEF);
  std::uint64_t fired = 0;
  std::vector<std::function<void()>> behaviors(
      static_cast<std::size_t>(actors));
  const auto start = Clock::now();
  for (int a = 0; a < actors; ++a) {
    auto& self = behaviors[static_cast<std::size_t>(a)];
    self = [&engine, &rng, &self, &fired, total_events] {
      ++fired;
      if (fired < total_events) {
        engine.ScheduleAfter(DrawArmedDelay(rng), [&self] { self(); });
      }
    };
    engine.ScheduleAfter(DrawArmedDelay(rng), [&self] { self(); });
  }
  engine.Run();
  return static_cast<double>(fired) / SecondsSince(start);
}

// --- fanout: watch broadcast of a realistic pod ------------------------

double WatchFanoutDeliveriesPerSec(int watchers, int updates) {
  sim::Engine engine;
  apiserver::ApiServer server(engine, CostModel::Default());
  std::uint64_t delivered = 0;
  for (int w = 0; w < watchers; ++w) {
    server.Watch(model::kKindPod,
                 [&delivered](const apiserver::WatchEvent&) { ++delivered; });
  }
  model::ApiObject rs = model::MakeReplicaSet(
      "fn-v1", "fn", 1, 1, model::RealisticPodTemplateSpec("fn"));
  model::ApiObject pod = model::MakePodFromTemplate("fn-v1-0", rs);
  const auto start = Clock::now();
  for (int u = 0; u < updates; ++u) {
    model::SetAnnotation(pod, "touch", StrFormat("%d", u));
    server.SeedObject(pod);
    engine.Run();
  }
  const double elapsed = SecondsSince(start);
  return static_cast<double>(delivered) / elapsed;
}

// --- m4000: the Fig. 11 emulation wall ---------------------------------

struct MScaleWall {
  double wall_s = 0;
  double sim_s = 0;
  bool converged = false;
  PhaseTimes phases;
  std::uint64_t engine_events = 0;
};

MScaleWall MScalabilityWall(int nodes, int pods) {
  cluster::ClusterConfig config = cluster::ClusterConfig::Kd(nodes);
  config.realistic_pod_template = false;
  const auto start = Clock::now();
  UpscaleResult result =
      RunUpscale(std::move(config), /*functions=*/1, pods, Minutes(60));
  MScaleWall wall;
  wall.wall_s = SecondsSince(start);
  wall.sim_s = ToSeconds(result.e2e);
  wall.converged = result.converged;
  wall.phases = result.phases;
  wall.engine_events = result.engine_events;
  return wall;
}

// --- driver -------------------------------------------------------------

struct HotpathReport {
  double sched_events_per_sec = 0;
  double fanout_deliveries_per_sec = 0;
  MScaleWall m_scale;
  int m_nodes = 0;
};

void WriteJson(const HotpathReport& r, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"sched_events_per_sec\": %.0f,\n"
               "  \"fanout_deliveries_per_sec\": %.0f,\n"
               "  \"m_scalability\": {\n"
               "    \"nodes\": %d,\n"
               "    \"wall_s\": %.2f,\n"
               "    \"sim_s\": %.2f,\n"
               "    \"converged\": %s,\n"
               "    \"phases\": %s,\n"
               "    \"engine\": %s\n"
               "  }\n"
               "}\n",
               r.sched_events_per_sec, r.fanout_deliveries_per_sec,
               r.m_nodes, r.m_scale.wall_s, r.m_scale.sim_s,
               r.m_scale.converged ? "true" : "false",
               PhasesJson(r.m_scale.phases).c_str(),
               EngineStatsJson(r.m_scale.engine_events).c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

int RunHotpath(bool smoke) {
  const int sched_actors = smoke ? 64 : 1000;
  const std::uint64_t sched_events = smoke ? 50'000 : 5'000'000;
  const int fanout_watchers = smoke ? 10 : 100;
  const int fanout_updates = smoke ? 20 : 200;
  const int m_nodes = smoke ? 40 : 4000;
  const int m_pods = m_nodes;  // one pod per node

  HotpathReport report;
  report.sched_events_per_sec =
      SchedulingEventsPerSec(sched_actors, sched_events);
  report.fanout_deliveries_per_sec =
      WatchFanoutDeliveriesPerSec(fanout_watchers, fanout_updates);
  report.m_scale = MScalabilityWall(m_nodes, m_pods);
  report.m_nodes = m_nodes;

  PrintHeader("Hot-path substrate throughput (host wall-clock)",
              {"metric", "value"});
  PrintRow({"sched events/s",
            StrFormat("%.2fM", report.sched_events_per_sec / 1e6)});
  PrintRow({"fanout deliveries/s",
            StrFormat("%.0fk", report.fanout_deliveries_per_sec / 1e3)});
  PrintRow({StrFormat("M=%d wall", m_nodes),
            StrFormat("%.2fs", report.m_scale.wall_s)});
  PrintRow({StrFormat("M=%d simulated", m_nodes),
            StrFormat("%.2fs", report.m_scale.sim_s)});

  if (!smoke) WriteJson(report, "BENCH_hotpath.json");
  return SmokeVerdict(report.m_scale.converged &&
                          report.sched_events_per_sec > 0,
                      "hotpath suite");
}

}  // namespace
}  // namespace kd::bench

int main(int argc, char** argv) {
  const bool smoke = kd::bench::ParseSmokeFlag(argc, argv);
  return kd::bench::RunHotpath(smoke);
}
