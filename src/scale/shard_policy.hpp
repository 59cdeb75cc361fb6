// Shard-routing policies for sharded_queue (the scaling layer's one
// degree of freedom).
//
// A policy answers two questions:
//
//   * enqueue_shard(tid, value) — which shard receives this insert. Called
//     once per enqueue.
//   * home_shard(tid)           — where this thread's dequeue scan STARTS.
//     The scan then visits every other shard, so the choice affects
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
//   * key_hash_shards    — shard = hash64(key(value)) mod S. All items with
//     equal key share a shard, so per-KEY FIFO holds system-wide — the
//     contract stream-processing partitioners (Kafka-style) give. The key
//     extractor is a stateless functor template parameter.
//
// Both policies are wait-free: a constant number of local steps per call.
#pragma once

#include <cstdint>

#include "harness/workload.hpp"

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

 private:
  std::uint32_t s_;
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

 private:
  std::uint32_t s_;
};

}  // namespace kpq
