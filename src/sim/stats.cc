#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace redn::sim {

void LatencyRecorder::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyRecorder::MeanNs() const {
  if (samples_.empty()) return 0.0;
  const double sum = std::accumulate(samples_.begin(), samples_.end(), 0.0);
  return sum / static_cast<double>(samples_.size());
}

Nanos LatencyRecorder::MinNs() const {
  if (samples_.empty()) return 0;
  return *std::min_element(samples_.begin(), samples_.end());
}

Nanos LatencyRecorder::MaxNs() const {
  if (samples_.empty()) return 0;
  return *std::max_element(samples_.begin(), samples_.end());
}

Nanos LatencyRecorder::PercentileNs(double p) const {
  if (samples_.empty()) return 0;
  // Add()/Clear() invalidate sorted_, so back-to-back percentile queries
  // reuse one sort instead of re-sorting O(n log n) on every call.
  EnsureSorted();
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  const double rank = p / 100.0 * static_cast<double>(samples_.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx == 0) idx = 1;
  if (idx > samples_.size()) idx = samples_.size();
  return samples_[idx - 1];
}

ThroughputTimeline::ThroughputTimeline(Nanos bucket_width, Nanos horizon)
    : bucket_width_(bucket_width),
      counts_(static_cast<std::size_t>((horizon + bucket_width - 1) / bucket_width), 0) {
  if (bucket_width <= 0) throw std::invalid_argument("bucket_width must be > 0");
}

void ThroughputTimeline::Record(Nanos when) {
  if (when < 0) return;
  const std::size_t b = static_cast<std::size_t>(when / bucket_width_);
  if (b < counts_.size()) ++counts_[b];
}

double ThroughputTimeline::Rate(std::size_t bucket) const {
  return static_cast<double>(counts_[bucket]) / ToSeconds(bucket_width_);
}

}  // namespace redn::sim
