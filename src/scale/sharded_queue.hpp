// sharded_queue<Q, Policy> — the scaling front-end over S independent
// inner MPMC queues (default: the KP wait-free queue, untouched).
//
// Why: every operation on one KP queue is a rendezvous with every other
// thread — phase scans, the help() traversal, head/tail CAS contention all
// grow with the thread count on THAT queue. The literature's answer
// (No Cords Attached; wCQ; every production stream partitioner) is
// coordination REDUCTION: split traffic across independent lanes so the
// per-lane thread count, and with it the helping bound, shrinks by S. This
// class is that split, as a front-end satisfying the same mpmc_queue
// concept as the queues it wraps, so harness/bench/adapter code is reusable
// unchanged.
//
// Semantics (the "relaxed cross-shard ordering contract", documented in
// docs/ALGORITHM.md §6):
//   * Each shard is a linearizable FIFO (it IS an inner queue).
//   * Items that route to the same shard keep their FIFO order. With the
//     affinity policy that covers per-producer order; with key-hash,
//     per-key order.
//   * Cross-shard order is unspecified — the price of independence.
//   * dequeue() returning nullopt means: every shard, at the moment the
//     scan visited it, was observed empty by a linearizable inner dequeue.
//     There is no single instant at which the WHOLE structure was empty
//     (tested: per-shard empty honesty still holds, see
//     scale_random_schedule_test).
//
// Progress: enqueue is one policy call + one inner enqueue. dequeue is at
// most S inner dequeues (the cyclic scan visits each shard once) — a
// constant for a given configuration — so the front-end is wait-free
// whenever the inner queue is, with the helping bound divided by the number
// of shards traffic actually spreads over.
//
// Dequeue scan = work stealing: the scan starts at home_shard(tid) and
// continues over every other shard. A consumer prefers its own lane (cheap,
// uncontended) and falls back to draining peers' lanes when its own runs
// dry, so no item is ever stranded behind an idle consumer. The
// stolen/dequeued ratio and the empty-scan count are exported per shard
// (scale_counters.hpp) — the fig_sharding bench prints them. The front-end
// records no trace events; a traced inner queue records its own.
//
// async::async_sharded (scale/async_shards.hpp) is this class over
// async_mpmc shards plus the coroutine calls, so both faces share one
// router and one scan.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/queue_concepts.hpp"
#include "scale/scale_counters.hpp"
#include "scale/shard_policy.hpp"
#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

namespace kpq {

template <typename Q, typename Policy = affinity_shards>
  requires mpmc_queue<Q>
class sharded_queue {
 public:
  using value_type = typename Q::value_type;
  using inner_type = Q;

  /// Every shard is built from the same `args` (reused, not forwarded —
  /// pass copyable configuration). For the KP queue that is
  /// `(max_threads[, mc])`: every thread may steal from every shard, so
  /// each shard must be built for the full thread count, and `mc` accounts
  /// every shard's allocations in one sink. Over bounded shards,
  /// `sharded_queue<bounded_wf_queue<T>>(S, n, cfg)` caps the TOTAL memory
  /// at S * cfg.max_bytes, each shard admitting on its own.
  template <typename... Args>
    requires std::constructible_from<Q, Args&...>
  explicit sharded_queue(std::uint32_t shard_count, Args&&... args)
      : sharded_queue(shard_count, [&](std::uint32_t) {
          return std::make_unique<Q>(args...);
        }) {}

  /// Factory construction, for shards that differ, e.g. a test giving each
  /// shard its own recorder:
  ///
  ///   sharded_queue<recorded<Q>> q(S, [&](std::uint32_t s) {
  ///     return std::make_unique<recorded<Q>>(n, logs[s]);
  ///   });
  template <typename Factory>
    requires std::is_invocable_r_v<std::unique_ptr<Q>, Factory&, std::uint32_t>
  sharded_queue(std::uint32_t shard_count, Factory&& make_shard)
      : nshards_(shard_count), policy_(shard_count), counters_(shard_count) {
    assert(shard_count >= 1);
    shards_.reserve(nshards_);
    for (std::uint32_t s = 0; s < nshards_; ++s) {
      shards_.push_back(make_shard(s));
      assert(shards_.back() != nullptr);
    }
  }

  sharded_queue(const sharded_queue&) = delete;
  sharded_queue& operator=(const sharded_queue&) = delete;

  // ------------------------------------------------------------------ single

  void enqueue(value_type v, std::uint32_t tid) {
    const std::uint32_t s = enqueue_shard(tid, v);
    shards_[s]->enqueue(std::move(v), tid);
    counters_[s]->on_enqueue();
  }
  void enqueue(value_type v) { enqueue(std::move(v), this_thread_id()); }

  /// Work-stealing scan: the caller's home shard first, then every other
  /// shard in index order. At most one inner dequeue per shard per call,
  /// hence wait-free (see file comment).
  std::optional<value_type> dequeue(std::uint32_t tid) {
    // A consumer's scan starts where the matching producer enqueues, so the
    // affinity pairing keeps its near-zero steal rate.
    const std::uint32_t home = policy_.home_shard(tid) % nshards_;
    for (std::uint32_t k = 0; k <= nshards_; ++k) {
      const std::uint32_t s = k == 0 ? home : k - 1;
      if (k != 0 && s == home) continue;  // already visited first
      if (auto v = shards_[s]->dequeue(tid)) {
        counters_[s]->on_dequeue(/*stolen=*/s != home);
        return v;
      }
    }
    counters_[home]->on_empty_scan();
    return std::nullopt;
  }
  std::optional<value_type> dequeue() { return dequeue(this_thread_id()); }

  // ---------------------------------------------------------- observability

  std::uint32_t shard_count() const noexcept { return nshards_; }
  Q& shard(std::uint32_t s) noexcept { return *shards_[s]; }
  const Q& shard(std::uint32_t s) const noexcept { return *shards_[s]; }

  shard_stats shard_counters_snapshot(std::uint32_t s) const {
    return counters_[s]->snapshot();
  }
  shard_stats aggregate_counters() const { return aggregate(counters_); }

  /// True if every shard looked empty at some point during the call (the
  /// relaxed emptiness the dequeue scan acts on; see file comment).
  bool empty_hint(std::uint32_t tid) {
    for (std::uint32_t s = 0; s < nshards_; ++s) {
      if (!shards_[s]->empty_hint(tid)) return false;
    }
    return true;
  }
  bool empty_hint() { return empty_hint(this_thread_id()); }

  /// Test-only, requires quiescence (inner contract).
  std::size_t unsafe_size() const {
    std::size_t n = 0;
    for (std::uint32_t s = 0; s < nshards_; ++s) n += shards_[s]->unsafe_size();
    return n;
  }

 protected:
  /// The policy's shard for an enqueue of `v` by `tid`, reduced modulo S.
  std::uint32_t enqueue_shard(std::uint32_t tid, const value_type& v) {
    return policy_.enqueue_shard(tid, v) % nshards_;
  }
  std::span<const std::unique_ptr<Q>> shards() const noexcept {
    return shards_;
  }

 private:
  const std::uint32_t nshards_;
  Policy policy_;
  std::vector<std::unique_ptr<Q>> shards_;
  std::vector<padded<shard_counters>> counters_;
};

}  // namespace kpq
