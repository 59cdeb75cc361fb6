// The reclaimer policy interface.
//
// The paper's Java implementation gets safe memory reclamation (and ABA
// freedom) from the garbage collector. Section 3.4 prescribes hazard
// pointers for unmanaged runtimes. This repository makes the reclamation
// scheme a policy so the same queue code runs under one of two domains:
//
//   * hp_domain     — Michael's hazard pointers (wait-free; the paper's
//                     prescription, and the default),
//   * leaky_domain  — defers every retirement to domain destruction (zero
//                     per-op cost; isolates pure algorithm cost in benches
//                     and simplifies some tests).
//
// Contract
// --------
// A domain is created per container with (max_threads, slots_per_thread).
// Threads are identified by a dense id < max_threads (see thread_registry).
//
//   guard g = domain.enter(tid);      // RAII critical-section token
//   T* p  = g.protect(slot, src);     // loads src and makes *p safe to
//                                     // dereference until the slot is
//                                     // protected again or the guard exits.
//                                     // May internally re-load src (hazard
//                                     // pointer validation loop).
//   auto w = g.protect(slot, cell);   // the same for a packed word: pins
//                                     // cell.word().node and returns the
//                                     // whole word (the queue's head word)
//   domain.retire(tid, p, fn, ctx);   // fn(ctx, p) frees p once no guard
//                                     // can still reach it
//
// `slot` indexes a small per-thread set of protection slots; the container
// declares how many it needs. The leaky domain ignores slots entirely —
// nothing it holds is freed before the domain dies.
//
// Callback thread: fn(ctx, p) runs on the thread that retired p (the `tid`
// passed to retire), or at quiescence in the domain's destructor. So a
// callback may touch state owned by the retiring thread without
// synchronization — heap_node_storage hands the node to that thread's free
// list (storage/recycle_list.hpp). The domains keep this by freeing only
// the caller's own retirements: `scan(tid)` (hp_domain) may be called only
// by thread `tid`, or by any thread at quiescence.
//
// Statistics: retired_count(), freed_count() and pending_count() sum per-
// thread cells the owners write (sync/owner_cell.hpp). They are exact at
// quiescence and momentary estimates while threads retire.
//
// ABA note: a pointer compared by CAS must be protected by the CASing thread
// from the moment it was read until the CAS retires. Both domains give this
// for free inside a guard (hazard pointers via the slot, leaky because
// nothing is unmapped before the domain dies).
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>

namespace kpq {

/// Type-erased deleter: fn(ctx, object).
using retire_fn = void (*)(void*, void*);

template <typename R>
concept reclaimer_domain = requires(R r, std::uint32_t tid, std::uint32_t slot,
                                    std::atomic<int*>& src, int* p, void* ctx,
                                    retire_fn fn) {
  { r.enter(tid) };
  { r.retire(tid, p, fn, ctx) };
  { r.enter(tid).protect(slot, src) } -> std::same_as<int*>;
};

}  // namespace kpq
