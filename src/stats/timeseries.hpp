#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace dfly {

/// Fixed-bucket time series: accumulates a value per time bucket.
/// Used for the paper's throughput-over-time plots (Figs 5, 9, 13b): add
/// delivered bytes at eject time, then read GB/ms per bucket.
class TimeSeries {
 public:
  explicit TimeSeries(SimTime bucket_width = kMs / 10) : bucket_width_(bucket_width) {}

  /// Drop every bucket (keeping capacity) and adopt a new bucket width —
  /// the in-place re-init used when stats blocks are recycled across cells.
  void reset(SimTime bucket_width) {
    bucket_width_ = bucket_width;
    buckets_.clear();
  }

  void add(SimTime when, double value) {
    const auto idx = static_cast<std::size_t>(when / bucket_width_);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0.0);
    buckets_[idx] += value;
  }

  /// Element-wise accumulate another series with the same bucket width
  /// (extending to its length). Bucket values are integer-valued doubles far
  /// below 2^53 (byte counts), so the addition is exact and order-independent
  /// — PacketLog::system_delivered() sums the per-app series with it.
  void merge_from(const TimeSeries& other) {
    if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0.0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  }

  SimTime bucket_width() const { return bucket_width_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  double bucket(std::size_t i) const { return i < buckets_.size() ? buckets_[i] : 0.0; }
  SimTime bucket_start(std::size_t i) const { return static_cast<SimTime>(i) * bucket_width_; }

  /// Sum over all buckets.
  double total() const;
  /// Mean bucket value over [first, last) bucket indices (or all when empty).
  double mean_rate() const;
  /// Mean of the buckets that fall inside [t0, t1).
  double mean_rate_between(SimTime t0, SimTime t1) const;
  /// Max bucket value and the start time of that bucket.
  struct Peak {
    double value{0};
    SimTime when{0};
  };
  Peak peak() const;

  const std::vector<double>& buckets() const { return buckets_; }

 private:
  SimTime bucket_width_;
  std::vector<double> buckets_;
};

}  // namespace dfly
