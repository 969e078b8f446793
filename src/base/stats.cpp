#include "mpx/base/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mpx::base {

void LatencyRecorder::add(double seconds) {
  std::lock_guard<std::mutex> g(mu_);
  samples_.push_back(seconds);
}

std::size_t LatencyRecorder::count() const {
  std::lock_guard<std::mutex> g(mu_);
  return samples_.size();
}

void LatencyRecorder::clear() {
  std::lock_guard<std::mutex> g(mu_);
  samples_.clear();
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  if (&other == this) return;
  std::vector<double> theirs;
  {
    std::lock_guard<std::mutex> g(other.mu_);
    theirs = other.samples_;
  }
  std::lock_guard<std::mutex> g(mu_);
  samples_.insert(samples_.end(), theirs.begin(), theirs.end());
}

LatencySummary LatencyRecorder::summarize() const {
  std::vector<double> s;
  {
    std::lock_guard<std::mutex> g(mu_);
    s = samples_;
  }
  LatencySummary out;
  out.count = s.size();
  if (s.empty()) return out;
  std::sort(s.begin(), s.end());
  double sum = 0.0;
  for (double v : s) sum += v;
  const double mean = sum / static_cast<double>(s.size());
  double var = 0.0;
  for (double v : s) var += (v - mean) * (v - mean);
  var /= static_cast<double>(s.size());
  auto pct = [&s](double p) {
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(s.size() - 1) + 0.5);
    return s[std::min(idx, s.size() - 1)];
  };
  out.mean_us = mean * 1e6;
  const std::size_t keep = std::max<std::size_t>(1, (s.size() * 99) / 100);
  double trimmed_sum = 0.0;
  for (std::size_t i = 0; i < keep; ++i) trimmed_sum += s[i];
  out.trimmed_mean_us = trimmed_sum / static_cast<double>(keep) * 1e6;
  out.min_us = s.front() * 1e6;
  out.max_us = s.back() * 1e6;
  out.p50_us = pct(0.50) * 1e6;
  out.p99_us = pct(0.99) * 1e6;
  out.stddev_us = std::sqrt(var) * 1e6;
  return out;
}

void MeanAccumulator::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double MeanAccumulator::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

}  // namespace mpx::base
