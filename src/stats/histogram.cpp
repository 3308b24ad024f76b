#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace dfly {

void Histogram::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

std::int64_t Histogram::min() const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return samples_.front();
}

std::int64_t Histogram::max() const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return samples_.back();
}

std::size_t Histogram::nearest_rank(double q, std::size_t n) {
  if (q <= 0.0) return 0;
  if (q >= 1.0) return n - 1;
  // Nearest-rank: the smallest value with at least q of the mass at or
  // below it (index = ceil(q*N) - 1).
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) - 1;
  return std::min(rank, n - 1);
}

std::int64_t Histogram::percentile(double q) const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return samples_[nearest_rank(q, samples_.size())];
}

double Histogram::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (const auto s : samples_) {
    const double d = static_cast<double>(s) - m;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

void Histogram::clear() {
  samples_.clear();
  sum_ = 0;
  sorted_ = true;
}

const std::vector<std::int64_t>& Histogram::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

double Accumulator::stddev() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double var = sum_sq_ / n - (sum_ / n) * (sum_ / n);
  return var <= 0.0 ? 0.0 : std::sqrt(var);
}

}  // namespace dfly
