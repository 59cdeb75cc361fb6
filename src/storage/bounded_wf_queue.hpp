// bounded_wf_queue<T>: the KP wait-free queue with a HARD ceiling on live
// memory. Bounded memory needs a fixed-size allocation unit (the wCQ design
// point); here it is the queue's recycled heap node (heap_node_storage).
//
// The ceiling is enforced by ADMISSION, not by a slotted ring: every
// enqueue first checks the queue's exact live-byte counter (mem_tracker —
// every node flows through it) against `max_bytes` minus a fixed
// headroom covering the worst case the already-admitted in-flight
// operations can still allocate. The bound argument
// (docs/MEMORY.md §2): any allocation happens inside an operation whose
// admission read live <= max_bytes - headroom; between any such read and
// the allocation, each of the n threads has at most one partially-complete
// operation, and one operation allocates at most
// per_op = Storage::max_alloc_bytes bytes — its owner's node, before it
// publishes; helpers allocate nothing (announce records are updated in
// place) — so live never exceeds (max_bytes - n*per_op) + n*per_op.
//
// The liveness floor: bytes a thread parks outside the list still count as
// live — its recycle list and inbox (Storage::cache_cap nodes each; no
// inbox fills at n = 1) and its retired list (the reclaimer's scan
// threshold) — so an EMPTY queue may hold up to
// n * (2 * cache_cap + scan_threshold) nodes beyond its sentinel. The
// constructor asserts max_bytes covers that floor
// plus the construction footprint and the headroom; then a drained queue
// always has room.
//
// Full-queue policies — a decision, never a wait, so every enqueue keeps
// the inner queue's wait-free step bound:
//   * reject           — try_enqueue returns false; enqueue drops.
//                        Admission is one counter read.
//   * overwrite_oldest — drop elements from the head until there is room
//                        (bounded-buffer telemetry semantics). If the queue
//                        is EMPTY and still over the ceiling (live bytes
//                        parked in caches and retired lists), it degrades
//                        to reject: the ceiling is never exceeded by
//                        design, even transiently.
//
// This is an adapter, not a re-implementation: the inner queue is the
// unmodified wf_queue (any variant), so every linearizability and helping
// property is inherited.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/wf_queue.hpp"
#include "sync/cacheline.hpp"
#include "sync/owner_cell.hpp"
#include "sync/thread_registry.hpp"

namespace kpq {

/// kpqbench's ladder still names this rung (bench/e2e). It is the opt queue
/// itself; it survives only until a benchmark change drops the
/// `opt_hp_seg` rung.
template <typename T, typename R = hp_domain>
using wf_queue_opt_seg = wf_queue_opt<T, R>;

enum class full_policy : std::uint8_t { reject, overwrite_oldest };

struct bounded_config {
  /// Ceiling on the queue's total live bytes (its nodes, queued, cached or
  /// retired), as counted by its mem_counters. Must cover floor_bytes():
  /// the construction footprint, the admission headroom and the nodes the
  /// threads may park outside the list (the constructor asserts it).
  std::size_t max_bytes;
  full_policy policy = full_policy::reject;
};

/// Counters for the policy outcomes (read via stats()).
struct bounded_counters {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t overwritten = 0;  // elements dropped by overwrite_oldest
};

template <typename T, typename Inner = wf_queue_opt<T>>
class bounded_wf_queue {
 public:
  using value_type = T;
  using inner_type = Inner;
  using storage_type = typename Inner::storage_type;

  bounded_wf_queue(std::uint32_t max_threads, bounded_config cfg)
      : cfg_(cfg),
        headroom_(static_cast<std::size_t>(max_threads) *
                  storage_type::max_alloc_bytes),
        q_(max_threads, &mc_) {
    // Below the floor a drained queue may still have no room (file
    // comment), and a reject queue would refuse every producer for good.
    const std::size_t lists = max_threads > 1 ? 2 : 1;  // list (+ inbox)
    floor_ = static_cast<std::size_t>(mc_.live_bytes()) + headroom_ +
             static_cast<std::size_t>(max_threads) *
                 (lists * storage_type::cache_cap +
                  q_.reclaimer().scan_threshold()) *
                 sizeof(typename storage_type::node_type);
    assert(cfg_.max_bytes >= floor_ &&
           "max_bytes below footprint + headroom + parked nodes");
  }

  bounded_wf_queue(const bounded_wf_queue&) = delete;
  bounded_wf_queue& operator=(const bounded_wf_queue&) = delete;

  // ---------------------------------------------------------------- enqueue

  /// Policy-aware admission. Returns false iff the element was NOT inserted:
  /// reject → ceiling reached; overwrite_oldest → ceiling reached with
  /// nothing left to drop.
  bool try_enqueue(T value, std::uint32_t tid) {
    switch (cfg_.policy) {
      case full_policy::reject:
        if (!has_room()) {
          count(&bounded_counters::rejected, tid);
          return false;
        }
        break;
      case full_policy::overwrite_oldest:
        while (!has_room()) {
          if (!q_.dequeue(tid).has_value()) {
            // Empty yet over the ceiling: the remaining live bytes are
            // nodes parked in caches and retired lists. Never exceed the
            // ceiling — degrade to reject.
            count(&bounded_counters::rejected, tid);
            return false;
          }
          count(&bounded_counters::overwritten, tid);
        }
        break;
    }
    q_.enqueue(std::move(value), tid);
    count(&bounded_counters::admitted, tid);
    return true;
  }
  bool try_enqueue(T value) {
    return try_enqueue(std::move(value), this_thread_id());
  }

  /// mpmc_queue-compatible enqueue: applies the policy and discards the
  /// admission result. Use try_enqueue when rejection must be observed.
  void enqueue(T value, std::uint32_t tid) {
    (void)try_enqueue(std::move(value), tid);
  }
  void enqueue(T value) { enqueue(std::move(value), this_thread_id()); }

  // ---------------------------------------------------------------- dequeue

  std::optional<T> dequeue(std::uint32_t tid) { return q_.dequeue(tid); }
  std::optional<T> dequeue() { return dequeue(this_thread_id()); }

  // ---------------------------------------------------------- observability

  std::uint32_t max_threads() const noexcept { return q_.max_threads(); }
  bool empty_hint(std::uint32_t tid) { return q_.empty_hint(tid); }
  bool empty_hint() { return q_.empty_hint(); }
  std::size_t unsafe_size() const { return q_.unsafe_size(); }
  std::size_t max_bytes() const noexcept { return cfg_.max_bytes; }
  full_policy policy() const noexcept { return cfg_.policy; }
  std::int64_t live_bytes() const noexcept { return mc_.live_bytes(); }
  const mem_counters& memory() const noexcept { return mc_; }
  inner_type& inner() noexcept { return q_; }
  storage_type& storage() noexcept { return q_.storage(); }
  /// The smallest ceiling the constructor accepts (see the file comment).
  std::size_t floor_bytes() const noexcept { return floor_; }

  bounded_counters stats() const {
    bounded_counters total;
    for (std::uint32_t i = 0; i < q_.max_threads(); ++i) {
      const bounded_counters& c = counters_[i].get();
      total.admitted += owner_load(c.admitted);
      total.rejected += owner_load(c.rejected);
      total.overwritten += owner_load(c.overwritten);
    }
    return total;
  }

 private:
  bool has_room() const noexcept {
    return mc_.live_bytes() + static_cast<std::int64_t>(headroom_) <=
           static_cast<std::int64_t>(cfg_.max_bytes);
  }

  // Owner-thread-only cells that stats() may read while the owners run:
  // sync/owner_cell.hpp.
  void count(std::uint64_t bounded_counters::* field, std::uint32_t tid) {
    owner_add(counters_[tid].get().*field);
  }

  bounded_config cfg_;
  std::size_t headroom_;
  std::size_t floor_ = 0;
  mem_counters mc_;  // before q_: the inner queue's ctor attaches to it
  Inner q_;
  std::vector<padded<bounded_counters>> counters_{q_.max_threads()};
};

}  // namespace kpq
