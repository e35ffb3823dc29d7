// Measurement primitives used by the benchmark harness and the FaaS
// request pipeline: exact-percentile samples, counters, and per-stage
// latency breakdowns (the paper reports E2E latency plus the time each
// controller spends, Figs. 9-11).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace kd {

// Stores every sample and computes exact quantiles. The simulations in
// this repo produce at most a few hundred thousand samples per run, so
// exact storage is cheaper than it sounds and avoids sketch error in
// the reproduced p99 numbers.
class Sample {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  // q in [0,1]; linear interpolation between order statistics.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P99() const { return Quantile(0.99); }

  const std::vector<double>& values() const { return values_; }
  void Clear() { values_.clear(); sorted_ = false; }

 private:
  void EnsureSorted() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

// Accumulates named counters and duration samples for one simulation
// run. Controllers record how long each unit of work took; benches read
// the recorder afterwards to print the paper's breakdown rows.
//
// Names are looked up as string_view through transparent comparators,
// so recording under a literal or a name built once allocates nothing;
// only a name's first use stores a copy.
class MetricsRecorder {
 public:
  template <typename V>
  using Series = std::map<std::string, V, std::less<>>;

  void Count(std::string_view name, std::int64_t delta = 1) {
    Slot(counters_, name) += delta;
  }
  std::int64_t GetCount(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  // Monotone high-water gauge, stored alongside counters so it prints
  // with them (e.g. "<loop>.queue_depth_max").
  void RecordMax(std::string_view name, std::int64_t v) {
    auto& cur = Slot(counters_, name);
    if (v > cur) cur = v;
  }
  // Per-incarnation counters: a component that crash-restarts resets
  // the counters scoped to its own process (like a real exporter whose
  // counters zero on restart), so sweep summaries report per-
  // incarnation counts. Lifetime totals (e.g. "apiserver.crashes") are
  // recorded by the harness, not the process, and are never reset.
  void ResetCounter(std::string_view name) {
    auto it = counters_.find(name);
    if (it != counters_.end()) counters_.erase(it);
  }
  void ResetCounterPrefix(std::string_view prefix) {
    auto it = counters_.lower_bound(prefix);
    while (it != counters_.end() && it->first.starts_with(prefix)) {
      it = counters_.erase(it);
    }
  }

  void RecordDuration(std::string_view name, Duration d) {
    Slot(samples_, name).Add(ToMillis(d));
  }
  void RecordValue(std::string_view name, double v) {
    Slot(samples_, name).Add(v);
  }
  const Sample& GetSample(std::string_view name) const;
  bool HasSample(std::string_view name) const {
    return samples_.find(name) != samples_.end();
  }

  // Interval markers: Start/Stop pairs keyed by (name) accumulate busy
  // time, used for "time controller X spent" measurements.
  void AddBusy(std::string_view name, Duration d) { Slot(busy_, name) += d; }
  Duration GetBusy(std::string_view name) const {
    auto it = busy_.find(name);
    return it == busy_.end() ? 0 : it->second;
  }

  // Records the earliest Start and latest Stop observed under `name`;
  // the span is the makespan of that stage across pipelining.
  void MarkStart(std::string_view name, Time t);
  void MarkStop(std::string_view name, Time t);
  // Makespan (last stop - first start); 0 if never marked.
  Duration GetSpan(std::string_view name) const;

  // Bulk read access for the benches' report printers.
  const Series<std::int64_t>& counters() const { return counters_; }
  const Series<Sample>& samples() const { return samples_; }

  void Clear();

 private:
  struct Span {
    Time first_start = -1;
    Time last_stop = -1;
  };

  // The value under `name`, value-initialized on first use: operator[]
  // for a string_view key, which std::map does not take.
  template <typename V>
  static V& Slot(Series<V>& series, std::string_view name) {
    auto it = series.lower_bound(name);
    if (it == series.end() || it->first != name) {
      it = series.emplace_hint(it, std::string(name), V{});
    }
    return it->second;
  }

  Series<std::int64_t> counters_;
  Series<Sample> samples_;
  Series<Duration> busy_;
  Series<Span> spans_;
};

}  // namespace kd
