// Per-thread capped caches of object storage, with one inbox per thread.
//
// recycle(tid, p) destroys *p and keeps its storage on thread tid's list;
// make(tid, args...) constructs in kept storage before it calls `new`. A
// list keeps at most `cap` entries. A full list moves whole into the inbox
// of a thread that wants it: one whose list ran dry, which make() then
// refills from its inbox. So storage retired on one thread feeds the
// threads that allocate, and only when no inbox wants a batch is it
// deleted. One thread keeps at most 2 * cap * sizeof(T) bytes, live in the
// owner's mem_tracked accounting like a block in a malloc cache.
//
// A list is touched only by its own thread, or by any thread at quiescence.
// Any thread may CAS a batch into a wanting inbox; only the owner (or
// purge) takes it, and no step retries. Reuse after a hazard-pointer
// handoff is safe for the reason reuse after free() is; the inbox's release
// CAS and acquire exchange carry the handoff's order to the thread that
// reuses the storage (docs/MEMORY.md §1).
//
// The user is heap_node_storage: `retire_fn` is its reclaimer callback,
// which runs on the retiring thread, the list's owner, with `context(tid)`.
// Kept storage is an intrusive FIFO: the link lives in the dead object, and
// reuse hands back the block kept longest ago (docs/MEMORY.md §1).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <utility>
#include <vector>

#include "harness/mem_tracker.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

template <typename T>
class recycle_lists {
  struct link {
    link* next;
    link* tail;        // a batch's first block only: its last block
    std::size_t size;  // a batch's first block only: its length
  };
  static_assert(sizeof(T) >= sizeof(link) && alignof(T) >= alignof(link),
                "kept storage holds the list link");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "storage comes from plain operator new");

  struct list {
    link* head = nullptr;  // kept longest ago: reused first
    link* tail = nullptr;
    std::size_t size = 0;
    recycle_lists* self = nullptr;
    std::uint32_t tid = 0;
    std::uint32_t cursor = 0;  // offset of the last inbox tried, 1..n-1
    // Null until the owner first runs dry, then wanted() or a batch: the
    // only field other threads touch.
    alignas(cacheline_size) std::atomic<link*> inbox{nullptr};
  };

 public:
  /// `acct` may be null (no accounting).
  recycle_lists(std::uint32_t max_threads, std::size_t cap,
                const mem_tracked* acct)
      : cap_(cap), acct_(acct), lists_(max_threads) {
    for (std::uint32_t t = 0; t < max_threads; ++t) {
      lists_[t]->self = this;
      lists_[t]->tid = t;
    }
  }

  recycle_lists(const recycle_lists&) = delete;
  recycle_lists& operator=(const recycle_lists&) = delete;

  ~recycle_lists() { purge(); }

  /// Construct a T in `tid`'s oldest kept storage (its list, else the batch
  /// in its inbox), else in a fresh allocation. Only `tid` may call this.
  template <typename... Args>
  T* make(std::uint32_t tid, Args&&... args) {
    list& l = lists_[tid].get();
    if (l.head == nullptr &&
        // kpq-order: relaxed pairs-with none (spares the exchange; only the
        // owner changes an inbox that is not wanted()).
        l.inbox.load(std::memory_order_relaxed) != wanted()) {
      // kpq-order: acquire pairs-with give_away's release CAS (the batch,
      // and what the reclaimer ordered before keeping it).
      if (link* b = l.inbox.exchange(wanted(), std::memory_order_acquire)) {
        l.head = b;
        l.tail = b->tail;
        l.size = b->size;
      }
    }
    link* mem = l.head;
    if (mem == nullptr) {
      T* p = new T(std::forward<Args>(args)...);
      if (acct_ != nullptr) acct_->account_alloc(sizeof(T));
      return p;
    }
    l.head = mem->next;
    if (l.head == nullptr) l.tail = nullptr;
    --l.size;
    try {
      return ::new (static_cast<void*>(mem)) T(std::forward<Args>(args)...);
    } catch (...) {
      put(l, mem);
      throw;
    }
  }

  /// Destroy *p and keep its storage for `tid` (past the cap, hand the
  /// list on or free it). Only `tid` may call this.
  void recycle(std::uint32_t tid, T* p) noexcept {
    p->~T();
    put(lists_[tid].get(), p);
  }

  /// Reclaimer callback: recycle(owner of `ctx`, p). `ctx` is context(tid)
  /// and the callback must run on `tid` (or at quiescence).
  static void retire_fn(void* ctx, void* p) noexcept {
    static_cast<T*>(p)->~T();
    list& l = *static_cast<list*>(ctx);
    l.self->put(l, p);
  }
  void* context(std::uint32_t tid) noexcept { return &lists_[tid].get(); }

  /// Free all kept storage, lists and inboxes. Requires quiescence.
  void purge() noexcept {
    for (auto& pl : lists_) {
      list& l = pl.get();
      // kpq-order: relaxed pairs-with none (quiescent).
      link* b = l.inbox.exchange(nullptr, std::memory_order_relaxed);
      for (link* mem : {l.head, b == wanted() ? nullptr : b}) {
        while (mem != nullptr) {
          link* next = mem->next;
          release(mem);
          mem = next;
        }
      }
      l.head = l.tail = nullptr;
      l.size = 0;
    }
  }

  /// Blocks kept for `tid`, its list and its inbox. Only `tid` may call
  /// this, or any thread at quiescence.
  std::size_t cached(std::uint32_t tid) const noexcept {
    // kpq-order: acquire pairs-with give_away's release CAS (the length).
    const link* b = lists_[tid]->inbox.load(std::memory_order_acquire);
    return lists_[tid]->size + (b != nullptr && b != wanted() ? b->size : 0);
  }

 private:
  void put(list& l, void* mem) noexcept {
    if (l.size == cap_ && !give_away(l)) {
      release(mem);
      return;
    }
    link* n = ::new (mem) link;  // tail and size: set on a batch's head
    n->next = nullptr;
    if (l.tail != nullptr) {
      l.tail->next = n;
    } else {
      l.head = n;
    }
    l.tail = n;
    ++l.size;
  }

  /// Move the full list `l` into the first wanting inbox among the other
  /// n - 1, scanned cyclically from `l`'s cursor: at most n - 1 loads and
  /// CASes, no retry. False, with `l` unchanged, when none wants one.
  bool give_away(list& l) noexcept {
    if (l.head == nullptr) return false;  // cap 0: nothing to give
    l.head->tail = l.tail;
    l.head->size = l.size;
    const auto n = static_cast<std::uint32_t>(lists_.size());
    for (std::uint32_t k = 1; k < n; ++k) {
      l.cursor = l.cursor % (n - 1) + 1;  // offsets 1..n-1: never our own
      std::atomic<link*>& box = lists_[(l.tid + l.cursor) % n]->inbox;
      link* want = wanted();
      // kpq-order: relaxed pairs-with none (a filter; the CAS decides).
      if (box.load(std::memory_order_relaxed) != want) continue;
      // kpq-order: release pairs-with make()'s acquire exchange.
      if (box.compare_exchange_strong(want, l.head, std::memory_order_release,
                                      std::memory_order_relaxed)) {
        l.head = l.tail = nullptr;
        l.size = 0;
        return true;
      }
    }
    return false;
  }

  /// An inbox's "empty, and its owner takes the next batch": set by the
  /// owner's first dry make(), so threads that never allocate get nothing.
  static link* wanted() noexcept {
    static link marker;
    return &marker;
  }

  void release(void* mem) const noexcept {
    if (acct_ != nullptr) acct_->account_free(sizeof(T));
    ::operator delete(mem, sizeof(T));
  }

  std::size_t cap_;
  const mem_tracked* acct_;  // the owning container's sink
  std::vector<padded<list>> lists_;
};

}  // namespace kpq
