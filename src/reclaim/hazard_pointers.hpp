// Hazard pointers (Michael, IEEE TPDS 2004) — the wait-free reclamation
// scheme §3.4 of the paper prescribes for the C++ port of the KP queue.
//
// Layout: `max_threads * slots_per_thread` announcement slots, each on its
// own cache line, plus a per-thread retired list. retire() appends to the
// owner's list; when the list crosses the scan threshold the owner scans all
// announcement slots once and frees every retired object not announced.
//
// Roots: set_roots(fn, ctx) registers extra announcements. Every scan calls
// fn(ctx, announced) to append pointers it then treats like hazard slots.
// wf_queue registers its announce records this way, so a node a record names
// stays alive until the record moves on (docs/ALGORITHM.md §2(c)).
//
// Progress: protect() is a validation loop, but each iteration corresponds
// to the *source* word changing, which in the queues only happens when
// some operation completes a step — so under the same argument the paper
// uses for its retry loops, the loop is bounded once the thread's own phase
// becomes the oldest. scan() is a bounded O(H + R) pass. retire() is O(1)
// amortised, O(H + R) worst case. No step blocks on another thread.
//
// Observability: owner-written retired/freed counters and the pending
// count (below), exported by obs/registry.hpp. The domain records no trace
// events; a scan's yield is the change in freed_count().
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "reclaim/reclaimer_concepts.hpp"
#include "sync/cacheline.hpp"
#include "sync/owner_cell.hpp"

namespace kpq {

class hp_domain {
 public:
  hp_domain(std::uint32_t max_threads, std::uint32_t slots_per_thread,
            std::uint32_t scan_threshold = 0)
      : max_threads_(max_threads),
        slots_per_thread_(slots_per_thread),
        slots_(static_cast<std::size_t>(max_threads) * slots_per_thread),
        retired_(max_threads) {
    const std::uint32_t total = max_threads * slots_per_thread;
    // Michael's recommendation: R >= H * (1 + small constant). The +64
    // amortises the scan for tiny configurations.
    scan_threshold_ = scan_threshold ? scan_threshold : 2 * total + 64;
  }

  hp_domain(const hp_domain&) = delete;
  hp_domain& operator=(const hp_domain&) = delete;

  /// Frees everything still retired. Caller must guarantee quiescence (no
  /// live guards), which container destructors do by construction.
  ~hp_domain() {
    for (auto& r : retired_) {
      for (auto& item : r->items) item.fn(item.ctx, item.p);
    }
  }

  class guard {
   public:
    guard(hp_domain& d, std::uint32_t tid) noexcept : d_(&d), tid_(tid) {}
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;
    guard(guard&& o) noexcept : d_(o.d_), tid_(o.tid_) { o.d_ = nullptr; }

    ~guard() {
      if (d_) {
        for (std::uint32_t i = 0; i < d_->slots_per_thread_; ++i) clear(i);
      }
    }

    /// Protect the pointer currently stored in `src`: announce it, then
    /// validate that `src` still holds it (otherwise the owner might already
    /// have retired it before seeing our announcement). The seq_cst
    /// store/load pair provides the StoreLoad ordering the protocol needs.
    /// A slot that already holds the pointer is not announced again: that
    /// announcement has stood since before the validating re-read, which is
    /// all the protocol asks of it (ALGORITHM.md §2(a)).
    template <typename T>
    T* protect(std::uint32_t slot, const std::atomic<T*>& src) noexcept {
      return validate(slot, src);
    }

    /// Protect the node a packed word names (`src.word().node`, e.g. the
    /// queue's head word): the same loop, over the whole word. It returns a
    /// word `src` held after the node's announcement, so every field of it
    /// was current while the node was already pinned.
    template <typename W>
    auto protect(std::uint32_t slot, const W& src) noexcept
        -> decltype(src.word()) {
      return validate(slot, src);
    }

   private:
    /// The announce-and-validate loop behind both protects: announce the
    /// node a value of `src` names, re-read `src`, and return the value
    /// once two reads agree.
    template <typename Src>
    auto validate(std::uint32_t slot, const Src& src) noexcept {
      std::atomic<void*>& h = d_->slot_ref(tid_, slot);
      auto v = read(src);
      // kpq-order: relaxed pairs-with none (own slot: only this thread
      // writes it, so the read returns our own last announcement)
      void* held = h.load(std::memory_order_relaxed);
      for (;;) {
        void* want = node_of(v);
        if (held != want) {
          h.store(want, std::memory_order_seq_cst);
          held = want;
        }
        const auto again = read(src);
        if (again == v) return v;
        v = again;
      }
    }

    template <typename T>
    static T* read(const std::atomic<T*>& src) noexcept {
      return src.load(std::memory_order_seq_cst);
    }
    template <typename W>
    static auto read(const W& src) noexcept -> decltype(src.word()) {
      // kpq-order: seq_cst pairs-with the seq_cst CAS that wrote the word
      // (W::word() is a seq_cst load, core/wf_node.hpp)
      return src.word();
    }
    template <typename T>
    static void* node_of(T* p) noexcept {
      return const_cast<std::remove_const_t<T>*>(p);
    }
    template <typename W>
    static void* node_of(const W& w) noexcept {
      return w.node;
    }

    void clear(std::uint32_t slot) noexcept {
      // kpq-order: release pairs-with scan()'s seq_cst slot read — our
      // preceding reads of *p happen-before a reclaimer frees p; clearing
      // needs no StoreLoad (a late-seen announcement only delays a free)
      d_->slot_ref(tid_, slot).store(nullptr, std::memory_order_release);
    }

    hp_domain* d_;
    std::uint32_t tid_;
  };

  guard enter(std::uint32_t tid) noexcept {
    assert(tid < max_threads_);
    return guard(*this, tid);
  }

  /// Hand `p` to the domain; `fn(ctx, p)` runs once no announcement can
  /// still name it.
  void retire(std::uint32_t tid, void* p, retire_fn fn, void* ctx) {
    assert(tid < max_threads_);
    auto& r = retired_[tid].get();
    r.items.push_back({p, fn, ctx});
    owner_add(r.retired);
    if (r.items.size() >= scan_threshold_) scan(tid);
  }

  /// fn(ctx, out) appends the pointers every scan must also keep (see the
  /// file comment). Set once, before any thread retires.
  using roots_fn = void (*)(void* ctx, std::vector<void*>& out);
  void set_roots(roots_fn fn, void* ctx) noexcept {
    roots_ = fn;
    roots_ctx_ = ctx;
  }

  /// One reclamation pass for `tid`'s retired list: free everything not
  /// currently announced by any thread or named by a root. Only `tid` may
  /// call this, or any thread at quiescence: the callbacks run here, on the
  /// retiring thread (reclaimer_concepts.hpp).
  void scan(std::uint32_t tid) {
    auto& r = retired_[tid].get();
    std::vector<void*>& announced = r.scratch;
    announced.clear();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (void* p = slots_[i]->load(std::memory_order_seq_cst)) {
        announced.push_back(p);
      }
    }
    if (roots_ != nullptr) roots_(roots_ctx_, announced);
    std::sort(announced.begin(), announced.end());
    std::size_t kept = 0;
    std::uint64_t freed_this_pass = 0;
    for (auto& item : r.items) {
      // Every retirement is one object: only its own address keeps it.
      if (std::binary_search(announced.begin(), announced.end(), item.p)) {
        r.items[kept++] = item;
      } else {
        item.fn(item.ctx, item.p);
        ++freed_this_pass;
      }
    }
    r.items.resize(kept);
    owner_add(r.freed, freed_this_pass);
  }

  // --- observability (tests assert reclamation actually happens) ---
  // Sums of owner-written per-thread cells (sync/owner_cell.hpp): exact at
  // quiescence, a momentary estimate while threads retire. pending_count()
  // reads the retired lists themselves, so it needs quiescence.
  std::uint64_t retired_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : retired_) n += owner_load(r->retired);
    return n;
  }
  std::uint64_t freed_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : retired_) n += owner_load(r->freed);
    return n;
  }
  std::size_t pending_count() const noexcept {
    std::size_t n = 0;
    for (const auto& r : retired_) n += r->items.size();
    return n;
  }
  std::uint32_t slots_per_thread() const noexcept { return slots_per_thread_; }
  std::uint32_t max_threads() const noexcept { return max_threads_; }
  std::uint32_t scan_threshold() const noexcept { return scan_threshold_; }

  /// Testing hook: what thread `tid` currently announces in `slot`.
  void* announced(std::uint32_t tid, std::uint32_t slot) const noexcept {
    return slots_[static_cast<std::size_t>(tid) * slots_per_thread_ + slot]
        ->load(std::memory_order_seq_cst);
  }

 private:
  struct retired_item {
    void* p;
    retire_fn fn;
    void* ctx;
  };
  struct retired_list {
    std::vector<retired_item> items;
    std::vector<void*> scratch;  // reused across scans
    std::uint64_t retired = 0;   // owner-written cells (owner_add)
    std::uint64_t freed = 0;
  };

  std::atomic<void*>& slot_ref(std::uint32_t tid, std::uint32_t slot) noexcept {
    assert(slot < slots_per_thread_);
    return slots_[static_cast<std::size_t>(tid) * slots_per_thread_ + slot]
        .get();
  }

  std::uint32_t max_threads_;
  std::uint32_t slots_per_thread_;
  std::uint32_t scan_threshold_;
  std::vector<padded<std::atomic<void*>>> slots_;
  std::vector<padded<retired_list>> retired_;
  roots_fn roots_ = nullptr;
  void* roots_ctx_ = nullptr;
};

static_assert(reclaimer_domain<hp_domain>);

}  // namespace kpq
