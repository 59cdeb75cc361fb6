// Bounded exponential backoff for CAS retry loops.
//
// Used by the lock-free baselines under contention. The KP wait-free queue
// deliberately does NOT back off on its helping path (backing off there would
// stretch the bounded-step guarantee); it may back off only on retry loops
// whose exit is guaranteed by another thread's progress.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace kpq {

/// One CPU-relax hint (PAUSE on x86, plain fence elsewhere).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Truncated exponential backoff: spins 2^k relax-hints, doubling up to
/// `max_spins`, then yields the OS slice. When threads outnumber cores (the
/// 8- and 12-thread shape tests on 4 cores, say) yielding is essential: the
/// thread we are waiting on may not run until we give up the core.
class backoff {
 public:
  explicit backoff(std::uint32_t max_spins = 1024) noexcept
      : max_spins_(max_spins) {}

  void operator()() noexcept {
    if (spins_ <= max_spins_) {
      for (std::uint32_t i = 0; i < spins_; ++i) cpu_relax();
      spins_ *= 2;
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { spins_ = 1; }

 private:
  std::uint32_t spins_ = 1;
  std::uint32_t max_spins_;
};

}  // namespace kpq
