// Measurement helpers: latency recorders, percentiles, throughput timelines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace redn::sim {

// The avg/percentile bundle the workload drivers report (µs).
struct LatencySummary {
  double avg_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

// Collects individual latency samples (ns) and reports summary statistics.
class LatencyRecorder {
 public:
  void Add(Nanos sample) {
    samples_.push_back(sample);
    sorted_ = false;  // invalidate here, not in the percentile query
  }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double MeanNs() const;
  Nanos MinNs() const;
  Nanos MaxNs() const;
  // Nearest-rank percentile, p in [0,100].
  Nanos PercentileNs(double p) const;

  double MeanUs() const { return MeanNs() / 1e3; }
  double PercentileUs(double p) const { return ToMicros(PercentileNs(p)); }
  double MedianUs() const { return PercentileUs(50.0); }
  LatencySummary Summarize() const {
    if (empty()) return {};
    return {MeanUs(), PercentileUs(50.0), PercentileUs(99.0),
            PercentileUs(99.9)};
  }

  void Clear() {
    samples_.clear();
    sorted_ = false;
  }
  const std::vector<Nanos>& samples() const { return samples_; }

 private:
  mutable std::vector<Nanos> samples_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

// Counts events into fixed-width time buckets; used for the Fig 16
// throughput-over-time plot.
class ThroughputTimeline {
 public:
  ThroughputTimeline(Nanos bucket_width, Nanos horizon);

  void Record(Nanos when);
  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t count(std::size_t bucket) const { return counts_[bucket]; }
  // Ops/sec within the bucket.
  double Rate(std::size_t bucket) const;

 private:
  Nanos bucket_width_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace redn::sim
