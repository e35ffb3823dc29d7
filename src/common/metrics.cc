#include "common/metrics.h"

#include <cassert>
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

std::vector<std::pair<double, double>> Sample::Cdf(int points) const {
  std::vector<std::pair<double, double>> out;
  if (values_.empty() || points <= 0) return out;
  out.reserve(static_cast<std::size_t>(points) + 1);
  for (int i = 0; i <= points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points);
    out.emplace_back(Quantile(q), q);
  }
  return out;
}

const Sample& MetricsRecorder::GetSample(const std::string& name) const {
  static const Sample kEmpty;
  auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

void MetricsRecorder::MarkStart(const std::string& name, Time t) {
  auto& span = spans_[name];
  if (span.first_start < 0 || t < span.first_start) span.first_start = t;
}

void MetricsRecorder::MarkStop(const std::string& name, Time t) {
  auto& span = spans_[name];
  if (t > span.last_stop) span.last_stop = t;
}

Duration MetricsRecorder::GetSpan(const std::string& name) const {
  auto it = spans_.find(name);
  if (it == spans_.end()) return 0;
  const Span& span = it->second;
  if (span.first_start < 0 || span.last_stop < span.first_start) return 0;
  return span.last_stop - span.first_start;
}

Time MetricsRecorder::GetFirstStart(const std::string& name) const {
  auto it = spans_.find(name);
  return it == spans_.end() ? -1 : it->second.first_start;
}

Time MetricsRecorder::GetLastStop(const std::string& name) const {
  auto it = spans_.find(name);
  return it == spans_.end() ? -1 : it->second.last_stop;
}

void MetricsRecorder::Clear() {
  counters_.clear();
  samples_.clear();
  busy_.clear();
  spans_.clear();
}

}  // namespace kd
