// Log-linear (HdrHistogram-style) histogram for every quantile kpqbench
// reports.
//
// Values below 256 get one bucket each. Above that, every power of two is
// split into 128 equal sub-buckets, so a bucket is never wider than 1/128
// of its lower edge. A quantile reports the midpoint of the bucket holding
// the nearest-rank sample, clamped to the exact min/max: within 0.4% of
// the sorted-vector answer, which selftest.cpp checks on skewed inputs.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace kpqbench {

class histogram {
 public:
  static constexpr unsigned sub_bits = 7;
  static constexpr std::uint64_t sub_count = std::uint64_t{1} << sub_bits;
  /// Larger values are clamped to 2^48 - 1 (days of TSC ticks).
  static constexpr unsigned max_bits = 48;
  static constexpr std::size_t bucket_count = (max_bits - sub_bits + 1) *
                                              sub_count;

  void add(std::uint64_t v) noexcept {
    v = std::min(v, (std::uint64_t{1} << max_bits) - 1);
    ++counts_[index(v)];
    ++n_;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void merge(const histogram& o) noexcept {
    for (std::size_t i = 0; i < bucket_count; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  /// Calls f(bucket index, count) for every non-empty bucket, in order.
  /// (run.py pools cells by these; its bucket_mid mirrors quantile's.)
  template <typename F>
  void for_each_bucket(F f) const {
    for (std::size_t i = 0; i < bucket_count; ++i) {
      if (counts_[i] != 0) f(i, counts_[i]);
    }
  }

  std::uint64_t count() const noexcept { return n_; }
  std::uint64_t min() const noexcept { return n_ == 0 ? 0 : min_; }
  std::uint64_t max() const noexcept { return max_; }

  /// Nearest-rank quantile, q in [0, 1]; 0 for an empty histogram.
  std::uint64_t quantile(double q) const noexcept {
    if (n_ == 0) return 0;
    const double exact_rank = std::ceil(q * static_cast<double>(n_));
    const std::uint64_t rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(exact_rank), 1, n_);
    if (rank == 1) return min();  // the extreme ranks are known exactly
    if (rank == n_) return max_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bucket_count; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        const unsigned shift = shift_of(i);
        const std::uint64_t lower = (i - shift * sub_count) << shift;
        const std::uint64_t mid = lower + ((std::uint64_t{1} << shift) - 1) / 2;
        return std::clamp(mid, min(), max_);
      }
    }
    return max_;
  }

 private:
  // Bucket i covers [lower, lower + 2^shift) with lower = (i - shift*128)
  // << shift; values below 256 have shift 0 and a bucket of their own.
  static std::size_t index(std::uint64_t v) noexcept {
    const unsigned width = static_cast<unsigned>(std::bit_width(v));
    const unsigned shift = width > sub_bits + 1 ? width - sub_bits - 1 : 0;
    return shift * sub_count + (v >> shift);
  }
  static unsigned shift_of(std::size_t i) noexcept {
    return i < 2 * sub_count ? 0 : static_cast<unsigned>(i / sub_count) - 1;
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(bucket_count);
  std::uint64_t n_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace kpqbench
