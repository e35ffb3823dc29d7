#include "common/metrics.h"

#include <numeric>

namespace kd {

void Sample::EnsureSorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Sample::Sum() const {
  // Summed in sorted order so the result is a function of the multiset
  // of samples, not of arrival order (floating-point addition is not
  // associative). The benches' printed means and totals were recorded
  // with this order; summing in arrival order would move them.
  EnsureSorted();
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Sample::Mean() const {
  if (values_.empty()) return 0.0;
  return Sum() / static_cast<double>(values_.size());
}

double Sample::Min() const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  return values_.front();
}

double Sample::Max() const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  return values_.back();
}

double Sample::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  if (q <= 0.0) return values_.front();
  if (q >= 1.0) return values_.back();
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values_.size()) return values_.back();
  return values_[lo] * (1.0 - frac) + values_[lo + 1] * frac;
}

const Sample& MetricsRecorder::GetSample(std::string_view name) const {
  static const Sample kEmpty;
  auto it = samples_.series.find(name);
  return it == samples_.series.end() ? kEmpty : it->second;
}

void MetricsRecorder::ResetCounter(std::string_view name) {
  auto it = counters_.series.find(name);
  if (it != counters_.series.end()) counters_.series.erase(it);
  ++counters_.epoch;
}

void MetricsRecorder::ResetCounterPrefix(std::string_view prefix) {
  auto it = counters_.series.lower_bound(prefix);
  while (it != counters_.series.end() && it->first.starts_with(prefix)) {
    it = counters_.series.erase(it);
  }
  ++counters_.epoch;
}

Duration MetricsRecorder::GetSpan(std::string_view name) const {
  auto it = spans_.series.find(name);
  if (it == spans_.series.end()) return 0;
  const Marks& marks = it->second;
  if (marks.first_start < 0 || marks.last_stop < marks.first_start) return 0;
  return marks.last_stop - marks.first_start;
}

void MetricsRecorder::Clear() {
  counters_.Clear();
  samples_.Clear();
  busy_.Clear();
  spans_.Clear();
}

}  // namespace kd
