// Workload generation for the paper's two benchmarks (§4):
//
//   * enqueue-dequeue pairs — "the queue is initially empty, and at each
//     iteration, each thread iteratively performs an enqueue operation
//     followed by a dequeue operation."
//   * 50% enqueues — "the queue is initialized with 1000 elements, and at
//     each iteration, each thread decides uniformly at random and
//     independently of other threads which operation it is going to
//     execute, with equal odds."
//
// Determinism: each thread derives its RNG from (seed, thread id) with
// splitmix64, so a run is reproducible regardless of interleaving.
#pragma once

#include <cstdint>

namespace kpq {

/// splitmix64 — tiny, high-quality seeding/stream-splitting PRNG.
struct splitmix64 {
  std::uint64_t state;

  explicit splitmix64(std::uint64_t seed) noexcept : state(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

/// xoshiro-style fast generator seeded from splitmix64.
class fast_rng {
 public:
  explicit fast_rng(std::uint64_t seed) noexcept {
    splitmix64 sm(seed);
    s0_ = sm.next();
    s1_ = sm.next();
    if ((s0_ | s1_) == 0) s1_ = 1;  // avoid the all-zero orbit
  }

  std::uint64_t next() noexcept {  // xorshift128+
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform boolean with probability p_num/p_den of true.
  bool bernoulli(std::uint32_t p_num, std::uint32_t p_den) noexcept {
    return next() % p_den < p_num;
  }
  bool coin() noexcept { return (next() & 1) != 0; }

 private:
  std::uint64_t s0_, s1_;
};

/// Per-thread RNG stream for workload `seed` and thread `tid`.
inline fast_rng thread_stream(std::uint64_t seed, std::uint32_t tid) noexcept {
  splitmix64 sm(seed ^ (0xA0761D6478BD642FULL * (tid + 1)));
  return fast_rng(sm.next());
}

/// Stateless 64-bit mixer (splitmix64 finalizer): the avalanche the
/// key-hash shard policy needs so that sequential keys spread evenly over a
/// small shard count.
inline std::uint64_t hash64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Unique payload encoding: thread id in the top bits, per-thread sequence
/// in the bottom. Tests use this to check per-producer FIFO order and
/// element conservation without auxiliary maps.
inline std::uint64_t encode_value(std::uint32_t tid,
                                  std::uint64_t seq) noexcept {
  return (static_cast<std::uint64_t>(tid) << 40) | seq;
}
inline std::uint32_t value_tid(std::uint64_t v) noexcept {
  return static_cast<std::uint32_t>(v >> 40);
}
inline std::uint64_t value_seq(std::uint64_t v) noexcept {
  return v & ((1ULL << 40) - 1);
}

}  // namespace kpq
