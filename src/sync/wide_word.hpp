// 16-byte atomic words: the load and CAS behind the queue's in-place
// announce records (core/announce_record.hpp) and its head word
// (core/wf_node.hpp).
//
//   * CAS — `lock cmpxchg16b`, inlined by GCC's __sync builtin under -mcx16
//     (the kpq target sets it). Without it the builtin would fall back to
//     libatomic, which may take a lock and would break wait-freedom, so the
//     build stops instead. std::atomic<16 bytes>::is_lock_free() cannot serve
//     as the check: GCC 12 reports false even where libatomic uses
//     cmpxchg16b.
//   * Load — one aligned 16-byte SSE load. CPUs that support AVX perform it
//     as a single atomic access (Intel SDM vol. 3A §9.1.1; AMD gives the same
//     guarantee), so require_wide_load() checks AVX once and stops the
//     program with a message where it is missing. On x86 every load is
//     ordered after earlier loads and every locked CAS is a full barrier, so
//     with all writes going through wide_cas the load reads as seq_cst; the
//     asm's memory clobber keeps the compiler from moving it.
//   * ThreadSanitizer builds use GCC's 16-byte __atomic builtins instead
//     (linked against libatomic), which TSan models as seq_cst atomics.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if !defined(__x86_64__)
#error "kpq's announce records need x86-64 (cmpxchg16b, 16-byte SSE loads)"
#endif
#if !defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16)
#error "16-byte CAS is not lock-free in this build: compile with -mcx16"
#endif
#if !defined(__SANITIZE_THREAD__)
#include <emmintrin.h>
#endif

namespace kpq {

__extension__ typedef unsigned __int128 wide_word;

/// Atomic 16-byte load of `*p` (16-byte aligned, written only by wide_cas).
inline wide_word wide_load(const wide_word* p) noexcept {
#if defined(__SANITIZE_THREAD__)
  return __atomic_load_n(p, __ATOMIC_SEQ_CST);
#else
  __m128i v;
  asm volatile("movdqa %1, %0" : "=x"(v) : "m"(*p) : "memory");
  wide_word w;
  std::memcpy(&w, &v, sizeof w);
  return w;
#endif
}

/// Sequentially consistent 16-byte CAS; true iff `*p` held `expected`.
inline bool wide_cas(wide_word* p, wide_word expected,
                     wide_word desired) noexcept {
#if defined(__SANITIZE_THREAD__)
  return __atomic_compare_exchange_n(p, &expected, desired, false,
                                     __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
#else
  return __sync_val_compare_and_swap(p, expected, desired) == expected;
#endif
}

/// Stops the program unless wide_load is atomic on this CPU (AVX present).
/// Cheap after the first call.
inline void require_wide_load() noexcept {
#if !defined(__SANITIZE_THREAD__)
  static const bool avx = __builtin_cpu_supports("avx");
  if (!avx) {
    std::fprintf(stderr,
                 "kpq: this CPU lacks AVX, so 16-byte loads are not "
                 "guaranteed atomic; the wait-free queue cannot run here\n");
    std::abort();
  }
#endif
}

}  // namespace kpq
