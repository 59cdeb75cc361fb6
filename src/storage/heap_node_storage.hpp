// Node storage: one reclaimer retirement per node, and nodes come from the
// heap, as in the paper (one node per enqueue). It sits behind the
// node_storage_for interface (storage_concepts.hpp) so tests can wrap it.
//
// Reclaimed nodes are recycled: the retire callback destroys the node and
// keeps its storage on the retiring thread's capped free list
// (recycle_list.hpp), and alloc() reuses that storage before it calls
// `new`; a full list moves to the inbox of a thread whose list ran dry. So
// a thread that both enqueues and dequeues, or a producer fed by consumers
// that only retire, runs without the allocator in steady state: reclaimed
// nodes reach free() only when no inbox wants them. Cached nodes count as
// live in mem_counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/wf_node.hpp"
#include "harness/mem_tracker.hpp"
#include "storage/recycle_list.hpp"

namespace kpq {

template <typename T>
class heap_node_storage {
 public:
  using value_type = T;
  using node_type = wf_node<T>;

  /// One alloc() call performs at most one node-sized heap allocation.
  static constexpr std::size_t max_alloc_bytes = sizeof(node_type);
  /// Reclaimed nodes one thread's list keeps for reuse (and so the batch
  /// it hands on). Large enough to absorb a hazard-pointer scan's batch of
  /// frees (the scan threshold, 88 at 4 threads: docs/MEMORY.md §2); at 32
  /// or 64 a batch spills back into free() and the deep-queue RSS growth
  /// returns (docs/MEMORY.md §1).
  static constexpr std::size_t cache_cap = 128;

  heap_node_storage(std::uint32_t max_threads, const mem_tracked* acct)
      : acct_(acct), cache_(max_threads, cache_cap, acct) {}

  heap_node_storage(const heap_node_storage&) = delete;
  heap_node_storage& operator=(const heap_node_storage&) = delete;

  template <typename R>
  node_type* alloc(std::uint32_t tid, T v, std::int32_t etid,
                   R& /*reclaim*/) {
    return cache_.make(tid, std::move(v), etid);
  }

  /// Unlinked but possibly still referenced: per-node retirement. Once no
  /// guard can reach the node, the reclaimer's callback recycles it on this
  /// (the retiring) thread.
  template <typename R>
  void retire(std::uint32_t tid, node_type* n, R& reclaim) {
    reclaim.retire(tid, n, &recycle_lists<node_type>::retire_fn,
                   cache_.context(tid));
  }

  /// Quiescent free (container destructor path).
  void release(node_type* n) noexcept {
    acct_->account_free(sizeof(node_type));
    delete n;
  }

  /// Nodes in `tid`'s list and inbox. Only `tid`, or at quiescence.
  std::size_t cached(std::uint32_t tid) const noexcept {
    return cache_.cached(tid);
  }

 private:
  const mem_tracked* acct_;  // the owning container's accounting sink
  recycle_lists<node_type> cache_;
};

}  // namespace kpq
