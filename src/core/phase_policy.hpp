// Phase-number assignment policies (paper §3.3, optimization 2).
//
// Wait-freedom requires that a thread starting an operation picks a phase at
// least as large as every phase chosen before it (the Bakery-style doorway):
// then the set of operations that can linearize before a given one is
// bounded.
//
//   * scan_max_phase  — the paper's base scheme (lines 48–57 + 62/99):
//                       scan the `state` array for the maximum phase, use
//                       max + 1. O(n) per operation even without contention.
//   * fetch_add_phase — optimization 2: a shared counter bumped with an
//                       atomic fetch-and-add. O(1).
//
// Both preserve the doorway property the wait-freedom proof (paper §5.3)
// relies on. Footnote 3's CAS counter (a failed CAS just reuses a phase) is
// not implemented: it measured the same as the fetch-and-add.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "sync/cacheline.hpp"

namespace kpq {

struct scan_max_phase {
  explicit scan_max_phase(std::uint32_t /*max_threads*/) {}

  template <typename Queue, typename Guard>
  std::int64_t next_phase(Queue& q, Guard& g, std::uint32_t tid) noexcept {
    return q.max_phase(g, tid) + 1;  // paper line 62 / 99
  }
};

struct fetch_add_phase {
  explicit fetch_add_phase(std::uint32_t /*max_threads*/) {}

  template <typename Queue, typename Guard>
  std::int64_t next_phase(Queue&, Guard&, std::uint32_t /*tid*/) noexcept {
    // Phases are signed (no_phase = -1 sorts below every drawn phase) and
    // 64-bit, so the counter never wraps in practice: 2^63 draws last about
    // 292 years at 10^9 phases per second.
    static_assert(std::is_same_v<typename decltype(counter.value)::value_type,
                                 std::int64_t>);
    // kpq-order: acq_rel pairs-with the other next_phase fetch_adds — the
    // RMW chain makes phase numbers monotone across threads (the Bakery
    // doorway the §5.3 wait-freedom proof needs); seq_cst is not required
    // because only the counter's own modification order matters
    return counter.value.fetch_add(1, std::memory_order_acq_rel);
  }

  padded<std::atomic<std::int64_t>> counter{std::int64_t{0}};
};

}  // namespace kpq
