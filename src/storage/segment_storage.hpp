// Segment-based node storage: fixed-size, segment-aligned arrays of node
// cells, allocated with a per-thread bump pointer and reclaimed at SEGMENT
// granularity (ROADMAP item 1; Yang & Mellor-Crummey's find_cell pages and
// Nikolaev's wCQ are the design points, see docs/MEMORY.md).
//
// Why: with heap storage every element costs one malloc, one free, and one
// reclaimer retirement. Here those costs amortize over a whole segment:
//
//   * alloc   — owner-only bump index into the thread's active segment; a
//               heap allocation (or a spare-segment reuse) happens once per
//               `cells_per_segment` nodes.
//   * retire  — an atomic consumed-count increment; the reclaimer sees ONE
//               retire_range() per segment instead of one retire() per node.
//   * memory  — live memory is a whole number of SegmentBytes blocks, the
//               unit bounded_wf_queue's hard ceiling is stated in.
//
// Protocol (the part that must be exactly right):
//
//   Each segment has an atomic `state` word: a consumed count in the low
//   bits plus a SEALED bit. The owning thread bump-allocates cells; when the
//   segment fills, the owner moves to a fresh segment and SEALS the old one
//   (fetch_or). Every dequeue-side retirement of a cell increments the
//   consumed count (fetch_add). Both RMWs return the previous word, so
//   exactly one of them observes the transition into
//   "sealed && consumed == capacity" — that thread owns handing the segment
//   to the reclaimer.
//
//   The reclaimer is given the segment as an address RANGE
//   (retire_range(), reclaim/): its scan keeps the segment alive while ANY
//   hazard slot points anywhere inside it. Cells are therefore never
//   destroyed or reused while a stale reader might still validate against
//   them — the same guarantee per-node delete had, at 1/cells_per_segment
//   the reclamation traffic. Node destructors run when the segment is
//   reclaimed, not when the cell is logically dequeued (payloads must
//   tolerate deferred destruction, which trivially they do for the
//   value types a concurrent queue carries; the dequeuer copies the T out
//   of the node its announce record names, see core/announce_record.hpp).
//
//   Reclaimed segments are recycled through a per-thread spare slot (the
//   YMC `handle->spare` idea): the reclaim callback parks the (cell-
//   destroyed) segment in its owner's spare slot if free, else frees it.
//   A thread opening a new segment first claims its spare — steady-state
//   traffic allocates nothing from the heap at all.
//
// ABA: a recycled segment reuses cell addresses, exactly like malloc reuses
// freed node addresses. The queues' hazard discipline (every CAS
// expected/desired value is pinned by the CASing thread) covers both cases
// identically.
//
// Lifetime: the reclaim callback dereferences this storage object, so the
// container MUST declare the storage before the reclaimer (storage outlives
// the reclaimer's destructor drain; see storage_concepts.hpp).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "core/wf_node.hpp"
#include "harness/mem_tracker.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

/// Snapshot of the segment pool (exported through obs/registry.hpp; the
/// fig10 bench and fig_obs_overhead print it). Counts are monotonic totals
/// except the three occupancy gauges.
struct segment_pool_stats {
  std::uint64_t segments_allocated = 0;  // heap allocations, total
  std::uint64_t segments_freed = 0;      // returned to the heap, total
  std::uint64_t segments_recycled = 0;   // reused via a spare slot, total
  std::int64_t segments_live = 0;        // allocated - freed (incl. spares)
  std::int64_t segments_spare = 0;       // parked in spare slots now
  std::int64_t segments_retired = 0;     // handed to the reclaimer, not freed
  std::uint64_t segment_bytes = 0;       // configured segment size
  std::uint64_t cells_per_segment = 0;   // nodes per segment
};

template <typename T, std::size_t SegmentBytes = 4096>
class segment_storage {
  static_assert((SegmentBytes & (SegmentBytes - 1)) == 0,
                "SegmentBytes must be a power of two (cells are mapped back "
                "to their segment by address masking)");

 public:
  using value_type = T;
  using node_type = wf_node<T>;

 private:
  /// One node slot. Construction is deferred to alloc(), destruction to
  /// segment reclamation (see file comment).
  struct cell {
    alignas(alignof(node_type)) std::byte raw[sizeof(node_type)];
  };

  static constexpr std::uint64_t sealed_bit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t consumed_mask = sealed_bit - 1;

  struct segment_header {
    std::atomic<std::uint64_t> state{0};  // consumed count | sealed_bit
    std::uint32_t allocated = 0;          // bump index, owner-only
    std::uint32_t owner_tid = 0;          // whose spare slot recycling targets
  };

 public:
  static constexpr std::size_t cells_per_segment =
      (SegmentBytes - sizeof(segment_header)) / sizeof(cell);
  static_assert(cells_per_segment >= 1,
                "SegmentBytes too small for even one node cell");

  /// One alloc() call opens at most one new segment.
  static constexpr std::size_t max_alloc_bytes = SegmentBytes;

 private:
  struct segment : segment_header {
    cell cells[cells_per_segment];
  };
  static_assert(sizeof(segment) <= SegmentBytes);

 public:
  segment_storage(std::uint32_t max_threads, const mem_tracked* acct)
      : acct_(acct), active_(max_threads), spare_(max_threads) {}

  segment_storage(const segment_storage&) = delete;
  segment_storage& operator=(const segment_storage&) = delete;

  /// Quiescence plus a drained reclaimer required (container destructor
  /// order guarantees both): frees the active and spare segments. Sealed
  /// segments were already destroyed through release()/the reclaim callback.
  ~segment_storage() {
    for (auto& a : active_) {
      if (segment* s = a.get()) destroy_segment(s);
    }
    for (auto& sp : spare_) {
      if (segment* s = sp->load(std::memory_order_relaxed)) {
        free_segment_memory(s);  // cells already destroyed at reclaim
      }
    }
  }

  // ------------------------------------------------------------------ alloc

  template <typename R>
  node_type* alloc(std::uint32_t tid, T v, std::int32_t etid, R& reclaim) {
    segment* s = active_[tid].get();
    if (s == nullptr || s->allocated == cells_per_segment) {
      s = open_segment(tid, s, reclaim);
    }
    node_type* n =
        new (&s->cells[s->allocated].raw) node_type(std::move(v), etid);
    ++s->allocated;
    return n;
  }

  // ------------------------------------------------------------ retirement

  /// Dequeue-side retirement: count the cell consumed; the consumer that
  /// completes a sealed segment hands the WHOLE segment to the reclaimer as
  /// an address range (one retirement per segment).
  template <typename R>
  void retire(std::uint32_t tid, node_type* n, R& reclaim) {
    segment* s = segment_of(n);
    const std::uint64_t prev =
        s->state.fetch_add(1, std::memory_order_acq_rel);
    assert((prev & consumed_mask) < cells_per_segment);
    if ((prev & sealed_bit) != 0 &&
        (prev & consumed_mask) + 1 == cells_per_segment) {
      retire_segment(tid, s, reclaim);
    }
  }

  /// Quiescent release (container destructor): same counting, but a
  /// completed segment is destroyed immediately — no concurrent reader can
  /// exist.
  void release(node_type* n) noexcept {
    segment* s = segment_of(n);
    const std::uint64_t prev =
        s->state.fetch_add(1, std::memory_order_acq_rel);
    if ((prev & sealed_bit) != 0 &&
        (prev & consumed_mask) + 1 == cells_per_segment) {
      destroy_segment(s);
    }
    // Unsealed (active) segments are freed by ~segment_storage.
  }

  // ---------------------------------------------------------- observability

  segment_pool_stats pool_stats() const noexcept {
    segment_pool_stats st;
    st.segments_allocated = allocated_.load(std::memory_order_relaxed);
    st.segments_freed = freed_.load(std::memory_order_relaxed);
    st.segments_recycled = recycled_.load(std::memory_order_relaxed);
    st.segments_live = static_cast<std::int64_t>(st.segments_allocated) -
                       static_cast<std::int64_t>(st.segments_freed);
    st.segments_spare = spare_count_.load(std::memory_order_relaxed);
    st.segments_retired = retired_pending_.load(std::memory_order_relaxed);
    st.segment_bytes = SegmentBytes;
    st.cells_per_segment = cells_per_segment;
    return st;
  }

 private:
  static segment* segment_of(node_type* n) noexcept {
    return reinterpret_cast<segment*>(reinterpret_cast<std::uintptr_t>(n) &
                                      ~(SegmentBytes - 1));
  }

  /// Seal (and possibly complete) the exhausted active segment, then open a
  /// fresh one: spare slot first, heap as fallback.
  template <typename R>
  segment* open_segment(std::uint32_t tid, segment* old, R& reclaim) {
    if (old != nullptr) {
      const std::uint64_t prev =
          old->state.fetch_or(sealed_bit, std::memory_order_acq_rel);
      assert((prev & sealed_bit) == 0 && "active segment sealed twice");
      if ((prev & consumed_mask) == cells_per_segment) {
        // Every cell was already consumed: the seal completed the segment.
        retire_segment(tid, old, reclaim);
      }
    }
    segment* s = spare_[tid]->exchange(nullptr, std::memory_order_acq_rel);
    if (s != nullptr) {
      spare_count_.fetch_sub(1, std::memory_order_relaxed);
      recycled_.fetch_add(1, std::memory_order_relaxed);
      s->state.store(0, std::memory_order_relaxed);
      s->allocated = 0;
      s->owner_tid = tid;
    } else {
      acct_->account_alloc(SegmentBytes);
      allocated_.fetch_add(1, std::memory_order_relaxed);
      void* raw = ::operator new(SegmentBytes, std::align_val_t{SegmentBytes});
      s = new (raw) segment;
      s->owner_tid = tid;
    }
    active_[tid].get() = s;
    return s;
  }

  template <typename R>
  void retire_segment(std::uint32_t tid, segment* s, R& reclaim) {
    retired_pending_.fetch_add(1, std::memory_order_relaxed);
    reclaim.retire_range(tid, s, SegmentBytes, &reclaim_segment_fn, this);
  }

  /// Reclaimer callback: no hazard slot points into the segment anymore.
  /// Destroy the deferred node objects, then recycle the memory through the
  /// owner's spare slot (or free it if the slot is taken).
  static void reclaim_segment_fn(void* ctx, void* p) {
    auto* self = static_cast<segment_storage*>(ctx);
    auto* s = static_cast<segment*>(p);
    self->retired_pending_.fetch_sub(1, std::memory_order_relaxed);
    self->destroy_cells(s);
    segment* expected = nullptr;
    if (self->spare_[s->owner_tid]->compare_exchange_strong(
            expected, s, std::memory_order_acq_rel)) {
      self->spare_count_.fetch_add(1, std::memory_order_relaxed);
    } else {
      self->free_segment_memory(s);
    }
  }

  void destroy_cells(segment* s) noexcept {
    for (std::uint32_t i = 0; i < s->allocated; ++i) {
      reinterpret_cast<node_type*>(&s->cells[i].raw)->~node_type();
    }
    s->allocated = 0;
  }

  void destroy_segment(segment* s) noexcept {
    destroy_cells(s);
    free_segment_memory(s);
  }

  void free_segment_memory(segment* s) noexcept {
    acct_->account_free(SegmentBytes);
    freed_.fetch_add(1, std::memory_order_relaxed);
    s->~segment();
    ::operator delete(static_cast<void*>(s), std::align_val_t{SegmentBytes});
  }

  const mem_tracked* acct_;  // the owning container's accounting sink
  std::vector<padded<segment*>> active_;  // owner-only bump segment
  std::vector<padded<std::atomic<segment*>>> spare_;  // recycling slots
  std::atomic<std::uint64_t> allocated_{0};
  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::int64_t> spare_count_{0};
  std::atomic<std::int64_t> retired_pending_{0};
};

}  // namespace kpq
