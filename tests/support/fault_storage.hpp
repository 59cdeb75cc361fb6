// Test-side node storage over heap_node_storage that injects the faults the
// shipping storage never shows a test:
//
//   * allocation failure — after fail_on_alloc(k), the k-th alloc() from
//     then on throws std::bad_alloc instead of allocating (DESIGN.md,
//     "Allocation failure", states what the queue guarantees then);
//   * freed nodes — with reclaim_mode::free, a reclaimed node is deleted
//     instead of recycled on its thread's free list, so AddressSanitizer
//     sees every read of a reclaimed node as a use-after-free. The explorer
//     suites run their queues over this mode.
//
// Plug it in through the queue's Storage parameter (freeing_base/opt/fps
// below are the typed suites' instantiations); reach it through
// q.storage(). Allocation counting is atomic, so concurrent tests may use
// it too.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "core/wf_node.hpp"
#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/mem_tracker.hpp"
#include "storage/heap_node_storage.hpp"
#include "support/baton.hpp"

namespace kpq::testing {

enum class reclaim_mode : std::uint8_t { recycle, free };

template <typename T, reclaim_mode Mode = reclaim_mode::recycle>
class fault_storage {
  using heap = heap_node_storage<T>;

 public:
  using value_type = T;
  using node_type = typename heap::node_type;
  static constexpr std::size_t max_alloc_bytes = heap::max_alloc_bytes;
  /// Recycle mode parks at most this many nodes per thread in its list, and
  /// as many in its inbox; free mode none.
  static constexpr std::size_t cache_cap = heap::cache_cap;

  fault_storage(std::uint32_t max_threads, const mem_tracked* acct)
      : acct_(acct), heap_(max_threads, acct) {}

  fault_storage(const fault_storage&) = delete;
  fault_storage& operator=(const fault_storage&) = delete;

  /// Restart the allocation count; the k-th alloc() from now throws
  /// (k == 0: none does).
  void fail_on_alloc(std::uint64_t k) noexcept {
    allocs_.store(0, std::memory_order_relaxed);
    fail_at_.store(k, std::memory_order_relaxed);
  }
  /// alloc() calls since the last fail_on_alloc, the failing one included.
  std::uint64_t allocs() const noexcept {
    return allocs_.load(std::memory_order_relaxed);
  }

  template <typename R>
  node_type* alloc(std::uint32_t tid, T v, std::int32_t etid, R& reclaim) {
    const std::uint64_t k = allocs_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (k == fail_at_.load(std::memory_order_relaxed)) throw std::bad_alloc();
    if constexpr (Mode == reclaim_mode::free) {
      auto* n = new node_type(std::move(v), etid);
      acct_->account_alloc(sizeof(node_type));
      return n;
    } else {
      return heap_.alloc(tid, std::move(v), etid, reclaim);
    }
  }

  template <typename R>
  void retire(std::uint32_t tid, node_type* n, R& reclaim) {
    if constexpr (Mode == reclaim_mode::free) {
      reclaim.retire(tid, n, &free_fn,
                     const_cast<void*>(static_cast<const void*>(acct_)));
    } else {
      heap_.retire(tid, n, reclaim);
    }
  }

  void release(node_type* n) noexcept { heap_.release(n); }

 private:
  static void free_fn(void* acct, void* p) noexcept {
    static_cast<const mem_tracked*>(acct)->account_free(sizeof(node_type));
    delete static_cast<node_type*>(p);
  }

  const mem_tracked* acct_;
  heap heap_;
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> fail_at_{0};
};

/// The explorer suites' storage: every reclaimed node is freed.
template <typename T>
using freeing_storage = fault_storage<T, reclaim_mode::free>;

/// The base, opt and fps variants over freeing_storage, scanning on every
/// retirement so even short runs free nodes mid-run.
template <typename T>
using freeing_base = wf_queue<T, help_all, scan_max_phase, eager_hp_domain,
                              wf_options, freeing_storage<T>>;
template <typename T>
using freeing_opt = wf_queue<T, help_one, fetch_add_phase, eager_hp_domain,
                             wf_options, freeing_storage<T>>;
template <typename T>
using freeing_fps =
    wf_queue_fps<T, eager_hp_domain, fps_options, freeing_storage<T>>;

}  // namespace kpq::testing
