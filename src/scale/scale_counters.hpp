// Per-shard observability counters for the scaling layer.
//
// Mirrors the core's wf_counters split: cheap always-on atomics (one
// relaxed RMW per event, each shard's block padded against false sharing),
// read at sampling points that are already synchronized by join/barrier —
// same contract as mem_counters. The derived quantities the fig_sharding
// bench and EXPERIMENTS.md report:
//
//   * depth      — enqueued − dequeued: live items attributed to the shard
//                  (exact under quiescence, a momentary estimate during a
//                  run).
//   * steal rate — fraction of successful dequeues served by a shard other
//                  than the caller's home shard. High steal rate means the
//                  routing policy is feeding shards the consumers don't
//                  drain, i.e. the sharding is buying less than it could.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sync/cacheline.hpp"

namespace kpq {

/// Plain snapshot (safe to copy around, feed to tables).
struct shard_stats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;   // successful pops served by this shard
  std::uint64_t stolen = 0;     // subset of dequeued: caller's home differed
  std::uint64_t empty_scans = 0;  // full scans that started here and failed

  std::int64_t depth() const noexcept {
    return static_cast<std::int64_t>(enqueued) -
           static_cast<std::int64_t>(dequeued);
  }
  double steal_rate() const noexcept {
    return dequeued == 0 ? 0.0
                         : static_cast<double>(stolen) /
                               static_cast<double>(dequeued);
  }

  shard_stats& operator+=(const shard_stats& o) noexcept {
    enqueued += o.enqueued;
    dequeued += o.dequeued;
    stolen += o.stolen;
    empty_scans += o.empty_scans;
    return *this;
  }
};

/// One shard's live counters. Relaxed: counts, not synchronization.
class shard_counters {
 public:
  void on_enqueue() noexcept {
    enqueued_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_dequeue(bool stolen) noexcept {
    dequeued_.fetch_add(1, std::memory_order_relaxed);
    if (stolen) stolen_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_empty_scan() noexcept {
    empty_scans_.fetch_add(1, std::memory_order_relaxed);
  }

  shard_stats snapshot() const noexcept {
    shard_stats s;
    s.enqueued = enqueued_.load(std::memory_order_relaxed);
    s.dequeued = dequeued_.load(std::memory_order_relaxed);
    s.stolen = stolen_.load(std::memory_order_relaxed);
    s.empty_scans = empty_scans_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> dequeued_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> empty_scans_{0};
};

/// Sum of per-shard snapshots (quiescence for exactness, as everywhere).
inline shard_stats aggregate(const std::vector<padded<shard_counters>>& cs) {
  shard_stats total;
  for (const auto& c : cs) total += c->snapshot();
  return total;
}

}  // namespace kpq
