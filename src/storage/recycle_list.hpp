// Per-thread capped caches of object storage.
//
// recycle(tid, p) destroys *p and keeps its storage on thread tid's list;
// make(tid, args...) constructs in kept storage before it calls `new`. Past
// `cap` entries a list deletes instead, so one thread keeps at most
// cap * sizeof(T) bytes. Kept storage stays live in the owner's mem_tracked
// accounting, like a block in a malloc cache.
//
// A list is touched only by its own thread, or by any thread at quiescence
// (construction, purge, destruction), so no operation synchronizes. Reuse
// after a hazard-pointer or epoch handoff is safe for the same reason
// reuse after free() is: the reclaimer's handoff orders every old access
// before the callback that recycles the storage.
//
// Two users:
//   * desc_pool — descriptors whose installing CAS failed (never published,
//     recycled directly by the thread that made them);
//   * heap_node_storage — nodes handed back by the reclaimer. `retire_fn`
//     is the retire callback and `context(tid)` its context; the reclaimer
//     contract runs the callback on the retiring thread, i.e. the list's
//     owner (reclaim/reclaimer_concepts.hpp).
//
// Kept storage is threaded into an intrusive FIFO: the link lives in the
// dead object, so keeping a block writes it, as free() writes a freed
// block, and reuse hands back the block kept longest ago (docs/MEMORY.md §1
// compares reuse orders).
#pragma once

#include <cstddef>
#include <cstdint>
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
  };
  static_assert(sizeof(T) >= sizeof(link) && alignof(T) >= alignof(link),
                "kept storage holds the list link");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "storage comes from plain operator new");

  struct list {
    link* head = nullptr;  // kept longest ago: reused first
    link* tail = nullptr;
    std::size_t size = 0;
    std::size_t cap = 0;
    const mem_tracked* acct = nullptr;  // the owning container's sink
  };

 public:
  /// `acct` may be null (no accounting).
  recycle_lists(std::uint32_t max_threads, std::size_t cap,
                const mem_tracked* acct)
      : lists_(max_threads) {
    for (auto& l : lists_) {
      l->cap = cap;
      l->acct = acct;
    }
  }

  recycle_lists(const recycle_lists&) = delete;
  recycle_lists& operator=(const recycle_lists&) = delete;

  ~recycle_lists() { purge(); }

  /// Construct a T in `tid`'s oldest kept storage, else in a fresh
  /// allocation. Only `tid` may call this.
  template <typename... Args>
  T* make(std::uint32_t tid, Args&&... args) {
    list& l = lists_[tid].get();
    link* mem = l.head;
    if (mem == nullptr) {
      T* p = new T(std::forward<Args>(args)...);
      if (l.acct != nullptr) l.acct->account_alloc(sizeof(T));
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

  /// Destroy *p and keep its storage for `tid` (past the cap, free it).
  /// Only `tid` may call this.
  void recycle(std::uint32_t tid, T* p) noexcept {
    p->~T();
    put(lists_[tid].get(), p);
  }

  /// Reclaimer callback: recycle(owner of `ctx`, p). `ctx` is context(tid)
  /// and the callback must run on `tid` (or at quiescence).
  static void retire_fn(void* ctx, void* p) noexcept {
    static_cast<T*>(p)->~T();
    put(*static_cast<list*>(ctx), p);
  }
  void* context(std::uint32_t tid) noexcept { return &lists_[tid].get(); }

  /// Free all kept storage. Requires quiescence.
  void purge() noexcept {
    for (auto& l : lists_) {
      while (link* mem = l->head) {
        l->head = mem->next;
        release(*l, mem);
      }
      l->tail = nullptr;
      l->size = 0;
    }
  }

  std::size_t cached(std::uint32_t tid) const noexcept {
    return lists_[tid]->size;
  }

 private:
  static void put(list& l, void* mem) noexcept {
    if (l.size == l.cap) {
      release(l, mem);
      return;
    }
    link* n = ::new (mem) link{nullptr};
    if (l.tail != nullptr) {
      l.tail->next = n;
    } else {
      l.head = n;
    }
    l.tail = n;
    ++l.size;
  }

  static void release(const list& l, void* mem) noexcept {
    if (l.acct != nullptr) l.acct->account_free(sizeof(T));
    ::operator delete(mem, sizeof(T));
  }

  std::vector<padded<list>> lists_;
};

}  // namespace kpq
