#pragma once

#include <cstdint>
#include <vector>

namespace dfly {

/// Reservoir-free exact distribution accumulator.
///
/// The paper reports mean, median, quartiles and the 95th/99th percentile of
/// packet latencies (Figs 6, 7, 13). Runs produce at most a few tens of
/// millions of samples, so we keep them all (8 bytes each) and sort lazily;
/// that gives exact order statistics instead of sketch approximations.
class Histogram {
 public:
  Histogram() = default;

  void add(std::int64_t value) {
    samples_.push_back(value);
    sum_ += value;
    sorted_ = samples_.size() <= 1;
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  std::int64_t sum() const { return sum_; }
  double mean() const { return samples_.empty() ? 0.0 : static_cast<double>(sum_) / static_cast<double>(samples_.size()); }
  std::int64_t min() const;
  std::int64_t max() const;

  /// Exact q-quantile (q in [0,1]) by the nearest-rank method.
  std::int64_t percentile(double q) const;
  /// The sorted index percentile(q) reads among n > 0 samples: 0 for q <= 0,
  /// n - 1 for q >= 1, ceil(q*n) - 1 otherwise.
  static std::size_t nearest_rank(double q, std::size_t n);
  std::int64_t median() const { return percentile(0.50); }
  std::int64_t p95() const { return percentile(0.95); }
  std::int64_t p99() const { return percentile(0.99); }

  /// Population standard deviation.
  double stddev() const;

  void clear();

  /// Read-only access for custom reductions (sorted ascending).
  const std::vector<std::int64_t>& sorted_samples() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<std::int64_t> samples_;
  mutable bool sorted_{true};
  std::int64_t sum_{0};
};

/// Simple scalar accumulator (count/mean/σ/min/max) for per-rank metrics.
class Accumulator {
 public:
  void add(double x) {
    if (count_ == 0 || x < min_) min_ = x;
    if (count_ == 0 || x > max_) max_ = x;
    ++count_;
    sum_ += x;
    sum_sq_ += x * x;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double stddev() const;

 private:
  std::uint64_t count_{0};
  double sum_{0}, sum_sq_{0}, min_{0}, max_{0};
};

}  // namespace dfly
