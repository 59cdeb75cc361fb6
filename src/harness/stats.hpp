// Summary statistics for repeated benchmark runs.
//
// The paper reports the average of ten runs per data point and notes the
// standard deviation was negligible; we report mean, stddev and min/max so
// EXPERIMENTS.md can substantiate the same claim, plus the one quantile rule
// over kept samples (obs/wf_metrics.hpp and examples/realtime_deadline read
// their distributions with it).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace kpq {

struct summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Welford's online algorithm: numerically stable single pass.
class running_stats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  summary finish() const noexcept {
    summary s;
    if (n_ == 0) return s;  // all-zero: a stat that never fired must export
                            // 0, never the ±inf/NaN of the empty state
    s.n = n_;
    s.mean = mean_;
    // m2_ can dip below zero by rounding when all samples are (near-)equal;
    // clamp so stddev is never NaN.
    s.stddev =
        n_ > 1 ? std::sqrt(std::max(m2_, 0.0) / static_cast<double>(n_ - 1))
               : 0.0;
    s.min = min_;
    s.max = max_;
    return s;
  }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Nearest-rank quantile (q in [0,1]) of ascending-sorted samples: the
/// sample at rank ceil(q*n), clamped to [1, n]. p0 is the smallest sample,
/// p100 the largest, and p50 of 1..10 is 5. No samples answer 0.
inline std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                                  double q) noexcept {
  const std::size_t n = sorted.size();
  if (n == 0) return 0;
  const double rank = std::clamp(std::ceil(q * static_cast<double>(n)), 1.0,
                                 static_cast<double>(n));
  return sorted[static_cast<std::size_t>(rank) - 1];
}

}  // namespace kpq
