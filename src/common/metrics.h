// Measurement primitives used by the benchmark harness and the FaaS
// request pipeline: exact-percentile samples, counters, and per-stage
// latency breakdowns (the paper reports E2E latency plus the time each
// controller spends, Figs. 9-11).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
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

  // Evenly spaced CDF points (value at each of `points` quantiles),
  // used to print the CDF figures.
  std::vector<std::pair<double, double>> Cdf(int points = 100) const;

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
class MetricsRecorder {
 public:
  void Count(const std::string& name, std::int64_t delta = 1) {
    counters_[name] += delta;
  }
  std::int64_t GetCount(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  // Monotone high-water gauge, stored alongside counters so it prints
  // with them (e.g. "<loop>.queue_depth_max").
  void RecordMax(const std::string& name, std::int64_t v) {
    auto& cur = counters_[name];
    if (v > cur) cur = v;
  }
  // Per-incarnation counters: a component that crash-restarts resets
  // the counters scoped to its own process (like a real exporter whose
  // counters zero on restart), so sweep summaries report per-
  // incarnation counts. Lifetime totals (e.g. "apiserver.crashes") are
  // recorded by the harness, not the process, and are never reset.
  void ResetCounter(const std::string& name) { counters_.erase(name); }
  void ResetCounterPrefix(const std::string& prefix) {
    auto it = counters_.lower_bound(prefix);
    while (it != counters_.end() && it->first.compare(0, prefix.size(),
                                                      prefix) == 0) {
      it = counters_.erase(it);
    }
  }

  void RecordDuration(const std::string& name, Duration d) {
    samples_[name].Add(ToMillis(d));
  }
  void RecordValue(const std::string& name, double v) { samples_[name].Add(v); }
  const Sample& GetSample(const std::string& name) const;
  bool HasSample(const std::string& name) const {
    return samples_.count(name) > 0;
  }

  // Interval markers: Start/Stop pairs keyed by (name) accumulate busy
  // time, used for "time controller X spent" measurements.
  void AddBusy(const std::string& name, Duration d) { busy_[name] += d; }
  Duration GetBusy(const std::string& name) const {
    auto it = busy_.find(name);
    return it == busy_.end() ? 0 : it->second;
  }

  // Records the earliest Start and latest Stop observed under `name`;
  // the span is the makespan of that stage across pipelining.
  void MarkStart(const std::string& name, Time t);
  void MarkStop(const std::string& name, Time t);
  // Makespan (last stop - first start); 0 if never marked.
  Duration GetSpan(const std::string& name) const;
  Time GetFirstStart(const std::string& name) const;
  Time GetLastStop(const std::string& name) const;

  // Bulk read access for the benches' report printers.
  const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, Sample>& samples() const { return samples_; }

  void Clear();

 private:
  struct Span {
    Time first_start = -1;
    Time last_stop = -1;
  };
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, Sample> samples_;
  std::map<std::string, Duration> busy_;
  std::map<std::string, Span> spans_;
};

}  // namespace kd
