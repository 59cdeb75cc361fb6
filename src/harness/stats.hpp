// Summary statistics for repeated benchmark runs.
//
// The paper reports the average of ten runs per data point and notes the
// standard deviation was negligible; we report mean, stddev and min/max so
// EXPERIMENTS.md can substantiate the same claim, plus nearest-rank
// percentile helpers over kept samples (examples/realtime_deadline reports
// its latency tail with them).
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

/// Nearest-rank percentile (q in [0,1]) over a sample vector. Sorts a copy;
/// use sort_and_percentiles for repeated queries.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

/// In-place variant: sorts xs once, then evaluates each requested quantile.
inline std::vector<double> sorted_percentiles(std::vector<double>& xs,
                                              const std::vector<double>& qs) {
  std::vector<double> out;
  out.reserve(qs.size());
  if (xs.empty()) {
    out.assign(qs.size(), 0.0);
    return out;
  }
  std::sort(xs.begin(), xs.end());
  for (double q : qs) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(xs.size() - 1) + 0.5);
    out.push_back(xs[std::min(rank, xs.size() - 1)]);
  }
  return out;
}

}  // namespace kpq
