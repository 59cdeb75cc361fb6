// The Michael–Scott lock-free MPMC FIFO queue (PODC 1996) — the `LF`
// baseline in every figure of the paper, with hazard-pointer reclamation
// exactly as in Michael's TPDS 2004 paper (the KP paper cites both).
//
// The implementation follows the classic listing (also in Herlihy & Shavit,
// which is the variant the paper benchmarked against): a singly-linked list
// with a sentinel; enqueue appends lazily (CAS next, then CAS tail), dequeue
// swings head and returns the new sentinel's value.
//
// Progress: lock-free, not wait-free — a dequeuer can starve if other
// threads keep winning the head CAS. That gap is precisely what the KP queue
// closes.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "harness/mem_tracker.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "sync/backoff.hpp"
#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

namespace kpq {

template <typename T, typename Reclaimer = hp_domain>
class ms_queue : public mem_tracked {
  static_assert(std::is_copy_constructible_v<T>);

 public:
  using value_type = T;

  struct node {
    T value;
    std::atomic<node*> next{nullptr};
    explicit node(T v) : value(std::move(v)) {}
  };

  static constexpr std::uint32_t hp_slots = 2;
  enum slot : std::uint32_t { s_first = 0, s_next = 1 };

  explicit ms_queue(std::uint32_t max_threads, mem_counters* mc = nullptr)
      : mem_tracked(mc), n_(max_threads), reclaim_(max_threads, hp_slots) {
    node* sentinel = alloc_node(T{});
    head_.store(sentinel, std::memory_order_relaxed);
    tail_.store(sentinel, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  ms_queue(const ms_queue&) = delete;
  ms_queue& operator=(const ms_queue&) = delete;

  ~ms_queue() {
    node* p = head_.load(std::memory_order_relaxed);
    while (p != nullptr) {
      node* next = p->next.load(std::memory_order_relaxed);
      free_node(p);
      p = next;
    }
  }

  void enqueue(T value) { enqueue(std::move(value), this_thread_id()); }

  void enqueue(T value, std::uint32_t tid) {
    assert(tid < n_);
    auto g = reclaim_.enter(tid);
    node* const fresh = alloc_node(std::move(value));
    backoff bo;
    for (;;) {
      node* last = g.protect(s_first, tail_);
      node* next = last->next.load(std::memory_order_seq_cst);
      if (last != tail_.load(std::memory_order_seq_cst)) continue;
      if (next == nullptr) {
        node* expected = nullptr;
        if (last->next.compare_exchange_strong(expected, fresh,
                                               std::memory_order_seq_cst)) {
          tail_.compare_exchange_strong(last, fresh,
                                        std::memory_order_seq_cst);
          return;
        }
        bo();
      } else {
        // Lazy tail: help the in-progress enqueue before retrying.
        tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst);
      }
    }
  }

  std::optional<T> dequeue() { return dequeue(this_thread_id()); }

  std::optional<T> dequeue(std::uint32_t tid) {
    assert(tid < n_);
    auto g = reclaim_.enter(tid);
    backoff bo;
    for (;;) {
      node* first = g.protect(s_first, head_);
      node* last = tail_.load(std::memory_order_seq_cst);
      node* next = g.protect(s_next, first->next);
      if (first != head_.load(std::memory_order_seq_cst)) continue;
      if (first == last) {
        if (next == nullptr) return std::nullopt;  // empty
        // Enqueue in progress: help swing tail, retry.
        tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst);
      } else {
        assert(next != nullptr);
        // Copy before the CAS: after winning, `next` is the sentinel and a
        // later dequeuer may retire it while we are still here; the hazard
        // slot covers the copy either way, but copying first matches the
        // canonical listing.
        T value = next->value;
        if (head_.compare_exchange_strong(first, next,
                                          std::memory_order_seq_cst)) {
          retire_node(tid, first);
          return value;
        }
        bo();
      }
    }
  }

  bool empty_hint(std::uint32_t tid) {
    auto g = reclaim_.enter(tid);
    node* first = g.protect(s_first, head_);
    node* last = tail_.load(std::memory_order_seq_cst);
    node* next = g.protect(s_next, first->next);
    return first == last && next == nullptr;
  }
  bool empty_hint() { return empty_hint(this_thread_id()); }

  std::uint32_t max_threads() const noexcept { return n_; }
  Reclaimer& reclaimer() noexcept { return reclaim_; }

  /// Test-only, requires quiescence.
  std::size_t unsafe_size() const {
    std::size_t n = 0;
    const node* p = head_.load(std::memory_order_acquire);
    for (p = p->next.load(std::memory_order_acquire); p != nullptr;
         p = p->next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

 private:
  node* alloc_node(T v) {
    account_alloc(sizeof(node));
    return new node(std::move(v));
  }
  void free_node(node* n) noexcept {
    account_free(sizeof(node));
    delete n;
  }
  static void retire_node_fn(void* ctx, void* p) {
    if (ctx != nullptr) {
      static_cast<mem_counters*>(ctx)->on_free(sizeof(node));
    }
    delete static_cast<node*>(p);
  }
  void retire_node(std::uint32_t tid, node* n) {
    reclaim_.retire(tid, n, &retire_node_fn, memory_counters());
  }

  const std::uint32_t n_;
  Reclaimer reclaim_;
  alignas(destructive_interference) std::atomic<node*> head_{nullptr};
  alignas(destructive_interference) std::atomic<node*> tail_{nullptr};
};

}  // namespace kpq
