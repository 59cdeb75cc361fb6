// Shard-routing policies for sharded_queue (the scaling layer's one
// degree of freedom).
//
// A policy answers two questions:
//
//   * enqueue_shard(tid, value) — which shard receives this insert. Called
//     once per enqueue.
//   * home_shard(tid)           — where this thread's dequeue scan STARTS.
//     The scan then walks all shards cyclically, so the choice affects
//     locality and steal rate, never correctness or progress.
//
// Policies provided:
//
//   * affinity_shards    — shard = tid mod S for both questions. A producer
//     always feeds the same shard and a consumer with the same residue
//     drains it first, so a matched producer/consumer pair almost never
//     contends with the rest of the system. Per-producer FIFO is trivially
//     per-shard FIFO. The default, and the one the fig_sharding bench
//     sweeps.
//   * round_robin_shards — enqueues spread by a shared fetch-add counter.
//     Best depth balance, worst locality (every producer touches every
//     shard), and per-producer FIFO is NOT preserved (two consecutive
//     enqueues by one thread land on different shards and may be observed
//     out of order). Use for work-pool workloads where per-item ordering is
//     irrelevant.
//   * key_hash_shards    — shard = hash64(key(value)) mod S. All items with
//     equal key share a shard, so per-KEY FIFO holds system-wide — the
//     contract stream-processing partitioners (Kafka-style) give. The key
//     extractor is a stateless functor template parameter.
//
// All policies are wait-free: a constant number of thread-local or
// fetch-add steps per call.
#pragma once

#include <atomic>
#include <cstdint>

#include "harness/workload.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

struct affinity_shards {
  explicit affinity_shards(std::uint32_t shard_count) : s_(shard_count) {}

  template <typename T>
  std::uint32_t enqueue_shard(std::uint32_t tid, const T&) const noexcept {
    return tid % s_;
  }
  std::uint32_t home_shard(std::uint32_t tid) const noexcept {
    return tid % s_;
  }
  /// Per-producer FIFO maps to per-shard FIFO (used by the checkers).
  static constexpr bool per_producer_fifo = true;
  static constexpr const char* name = "affinity";

 private:
  std::uint32_t s_;
};

struct round_robin_shards {
  explicit round_robin_shards(std::uint32_t shard_count) : s_(shard_count) {}

  template <typename T>
  std::uint32_t enqueue_shard(std::uint32_t, const T&) noexcept {
    return static_cast<std::uint32_t>(
               next_.value.fetch_add(1, std::memory_order_relaxed)) %
           s_;
  }
  std::uint32_t home_shard(std::uint32_t tid) const noexcept {
    return tid % s_;
  }
  static constexpr bool per_producer_fifo = false;
  static constexpr const char* name = "round_robin";

 private:
  std::uint32_t s_;
  padded<std::atomic<std::uint64_t>> next_{std::uint64_t{0}};
};

/// Key extractor for the common encode_value payload: the producer field,
/// so every producer's stream stays whole (same guarantee as affinity but
/// chosen by data, not by the enqueuing thread).
struct value_tid_key {
  std::uint64_t operator()(std::uint64_t v) const noexcept {
    return value_tid(v);
  }
};

template <typename KeyFn = value_tid_key>
struct key_hash_shards {
  explicit key_hash_shards(std::uint32_t shard_count) : s_(shard_count) {}

  template <typename T>
  std::uint32_t enqueue_shard(std::uint32_t, const T& v) const noexcept {
    return static_cast<std::uint32_t>(hash64(KeyFn{}(v)) % s_);
  }
  std::uint32_t home_shard(std::uint32_t tid) const noexcept {
    return tid % s_;
  }
  static constexpr bool per_producer_fifo = false;  // per-key instead
  static constexpr const char* name = "key_hash";

 private:
  std::uint32_t s_;
};

}  // namespace kpq
