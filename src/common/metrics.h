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
#include <utility>
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
// Record sites hold handles (Counter, Busy, Span, Samples), each a name
// resolved once by Resolve*(). The recorder keeps one slot per name and
// series, shared by every handle to that name; the slot caches the
// series entry, so a record follows a pointer, not a string search.
// Resolving a name creates no entry: the entry appears on the first
// record, exactly as a record by name creates it. Clear, ResetCounter
// and ResetCounterPrefix erase entries and bump their series' epoch, so
// every slot of that series finds its entry again on its next record.
// The by-name record calls stay: tests compare the handles against
// them, and the fault and relist counters that ApiClient and Informer
// name at run time use them, since a healthy run records neither. Names
// are looked up as string_view through transparent comparators, so a
// literal name allocates nothing.
class MetricsRecorder {
 public:
  template <typename V>
  using Series = std::map<std::string, V, std::less<>>;

 private:
  template <typename V>
  struct Table;

  // A name's place in one series: the entry it last resolved to, valid
  // while the series' epoch has not moved.
  template <typename V>
  struct Slot {
    Table<V>* table = nullptr;
    V* value = nullptr;
    std::uint64_t epoch = 0;  // tables start at epoch 1
  };

  template <typename V>
  struct Table {
    Series<V> series;
    // Never shrinks: handles point at these nodes.
    std::map<std::string, Slot<V>, std::less<>> slots;
    std::uint64_t epoch = 1;

    void Clear() {
      series.clear();
      ++epoch;
    }
  };

  // What a handle points at: a name and its slot.
  template <typename V>
  using SlotEntry = std::pair<const std::string, Slot<V>>;

  // The handles' common part. A default-constructed handle records
  // nothing (a component built without a recorder).
  template <typename V>
  class Handle {
   public:
    Handle() = default;
    explicit operator bool() const { return entry_ != nullptr; }

   protected:
    explicit Handle(SlotEntry<V>* entry) : entry_(entry) {}

    // The series value under the handle's name, created on first use;
    // null for an empty handle.
    V* Get() const {
      if (entry_ == nullptr) return nullptr;
      Slot<V>& slot = entry_->second;
      if (slot.epoch != slot.table->epoch) {
        slot.value = &FindOrAdd(slot.table->series, entry_->first);
        slot.epoch = slot.table->epoch;
      }
      return slot.value;
    }

   private:
    SlotEntry<V>* entry_ = nullptr;
  };

  struct Marks {
    Time first_start = -1;
    Time last_stop = -1;
  };

 public:
  MetricsRecorder() = default;
  // Slots point into their tables, so a recorder stays where it is.
  MetricsRecorder(const MetricsRecorder&) = delete;
  MetricsRecorder& operator=(const MetricsRecorder&) = delete;

  // A counter in counters(): Add, or RecordMax for a high-water gauge.
  class Counter : public Handle<std::int64_t> {
   public:
    Counter() = default;
    void Add(std::int64_t delta = 1) const {
      if (std::int64_t* v = Get()) *v += delta;
    }
    void RecordMax(std::int64_t v) const {
      std::int64_t* cur = Get();
      if (cur != nullptr && v > *cur) *cur = v;
    }

   private:
    friend class MetricsRecorder;
    explicit Counter(SlotEntry<std::int64_t>* entry) : Handle(entry) {}
  };
  // Accumulated busy time, read by GetBusy.
  class Busy : public Handle<Duration> {
   public:
    Busy() = default;
    void Add(Duration d) const {
      if (Duration* v = Get()) *v += d;
    }

   private:
    friend class MetricsRecorder;
    explicit Busy(SlotEntry<Duration>* entry) : Handle(entry) {}
  };
  // A stage's makespan, read by GetSpan.
  class Span : public Handle<Marks> {
   public:
    Span() = default;
    void MarkStart(Time t) const {
      if (Marks* m = Get()) Start(*m, t);
    }
    void MarkStop(Time t) const {
      if (Marks* m = Get()) Stop(*m, t);
    }

   private:
    friend class MetricsRecorder;
    explicit Span(SlotEntry<Marks>* entry) : Handle(entry) {}
  };
  // A sample series in samples().
  class Samples : public Handle<Sample> {
   public:
    Samples() = default;
    void RecordValue(double v) const {
      if (Sample* s = Get()) s->Add(v);
    }
    void RecordDuration(Duration d) const { RecordValue(ToMillis(d)); }

   private:
    friend class MetricsRecorder;
    explicit Samples(SlotEntry<Sample>* entry) : Handle(entry) {}
  };

  // Handles for `name`: the same slot for every call with that name.
  Counter ResolveCounter(std::string_view name) {
    return Resolve<Counter>(counters_, name);
  }
  Busy ResolveBusy(std::string_view name) {
    return Resolve<Busy>(busy_, name);
  }
  Span ResolveSpan(std::string_view name) {
    return Resolve<Span>(spans_, name);
  }
  Samples ResolveSamples(std::string_view name) {
    return Resolve<Samples>(samples_, name);
  }

  void Count(std::string_view name, std::int64_t delta = 1) {
    FindOrAdd(counters_.series, name) += delta;
  }
  std::int64_t GetCount(std::string_view name) const {
    auto it = counters_.series.find(name);
    return it == counters_.series.end() ? 0 : it->second;
  }
  // Monotone high-water gauge, stored alongside counters so it prints
  // with them (e.g. "<loop>.queue_depth_max").
  void RecordMax(std::string_view name, std::int64_t v) {
    auto& cur = FindOrAdd(counters_.series, name);
    if (v > cur) cur = v;
  }
  // Per-incarnation counters: a component that crash-restarts resets
  // the counters scoped to its own process (like a real exporter whose
  // counters zero on restart), so sweep summaries report per-
  // incarnation counts. Lifetime totals (e.g. "apiserver.crashes") are
  // recorded by the harness, not the process, and are never reset.
  void ResetCounter(std::string_view name);
  void ResetCounterPrefix(std::string_view prefix);

  void RecordDuration(std::string_view name, Duration d) {
    RecordValue(name, ToMillis(d));
  }
  void RecordValue(std::string_view name, double v) {
    FindOrAdd(samples_.series, name).Add(v);
  }
  const Sample& GetSample(std::string_view name) const;
  bool HasSample(std::string_view name) const {
    return samples_.series.find(name) != samples_.series.end();
  }

  // Interval markers: Start/Stop pairs keyed by (name) accumulate busy
  // time, used for "time controller X spent" measurements.
  void AddBusy(std::string_view name, Duration d) {
    FindOrAdd(busy_.series, name) += d;
  }
  Duration GetBusy(std::string_view name) const {
    auto it = busy_.series.find(name);
    return it == busy_.series.end() ? 0 : it->second;
  }

  // Records the earliest Start and latest Stop observed under `name`;
  // the span is the makespan of that stage across pipelining.
  void MarkStart(std::string_view name, Time t) {
    Start(FindOrAdd(spans_.series, name), t);
  }
  void MarkStop(std::string_view name, Time t) {
    Stop(FindOrAdd(spans_.series, name), t);
  }
  // Makespan (last stop - first start); 0 if never marked.
  Duration GetSpan(std::string_view name) const;

  // Bulk read access for the benches' report printers.
  const Series<std::int64_t>& counters() const { return counters_.series; }
  const Series<Sample>& samples() const { return samples_.series; }

  void Clear();

 private:
  // The value under `name`, value-initialized on first use: operator[]
  // for a string_view key, which std::map does not take.
  template <typename V>
  static V& FindOrAdd(Series<V>& series, std::string_view name) {
    auto it = series.lower_bound(name);
    if (it == series.end() || it->first != name) {
      it = series.emplace_hint(it, std::string(name), V{});
    }
    return it->second;
  }
  template <typename H, typename V>
  static H Resolve(Table<V>& table, std::string_view name) {
    auto it = table.slots.lower_bound(name);
    if (it == table.slots.end() || it->first != name) {
      it = table.slots.emplace_hint(it, std::string(name), Slot<V>{&table});
    }
    return H(&*it);
  }
  static void Start(Marks& marks, Time t) {
    if (marks.first_start < 0 || t < marks.first_start) marks.first_start = t;
  }
  static void Stop(Marks& marks, Time t) {
    if (t > marks.last_stop) marks.last_stop = t;
  }

  Table<std::int64_t> counters_;
  Table<Sample> samples_;
  Table<Duration> busy_;
  Table<Marks> spans_;
};

}  // namespace kd
