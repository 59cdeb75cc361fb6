// waiter_hub: the park/notify primitive behind every coroutine that waits
// for another thread to produce a condition (an item, or a close).
//
// The paper's dequeue never waits, so no thread waits on a queue: an empty
// queue is waited on by coroutines or polled. A hub's waiters are
// CONTINUATIONS behind a virtual interface — async::detail::park's nodes
// (async/park.hpp), each a suspended std::coroutine_handle<> resumed inline
// by the notifier or posted to an event_loop executor. One wait may enlist
// a node on several hubs; the nodes share one claim. The interface also
// lets a test substitute a scripted waiter.
//
// Protocol (a Dekker pairing):
//
//   waiter:   lock() → enlist() → RE-CHECK the predicate → commit_park() →
//             suspend (return control to the coroutine's caller). The
//             enlist bumps a seq_cst waiter count BEFORE the re-check.
//   notifier: make the predicate true → maybe_waiters() (seq_cst load). A
//             read of 0 proves any future waiter's re-check happens after
//             the notifier's write, so skipping the lock is safe. Otherwise
//             notify_one()/notify_all().
//
// Two-phase notification: under the hub lock the notifier pops a waiter and
// calls its try_accept(), which answers one of three ways:
//
//   * refused — the continuation was already claimed by a timeout or
//     cancellation; the notifier passes the token to the NEXT waiter
//     instead of dropping it, so a cancelled waiter can never eat a wakeup.
//   * accepted_inline — the wakeup is fully delivered under the lock (a
//     coroutine wait that is still arming finds the claim itself). The hub
//     must never touch the waiter again: the moment the lock drops, the
//     arming thread can finish the wait and destroy the waiter.
//   * needs_resume — the notifier calls resume() AFTER unlocking (a parked
//     coroutine). A coroutine must never be resumed while the notifier
//     holds the hub lock (the resumed frame may immediately re-enter the
//     hub); the frame is guaranteed alive post-unlock because teardown of
//     a parked frame must win the claim first (see async/park.hpp).
//
// The hub also owns the park/resume observability: a stats() block of
// park, notify and resume counts plus the accept->running latency.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>

#include "harness/timing.hpp"

namespace kpq {

/// Aggregate park/notify counters (read at sampling points; the mutex-
/// guarded fields are snapshotted under the hub lock).
struct waiter_hub_stats {
  std::uint64_t parks = 0;     // continuations that actually suspended
  std::uint64_t notifies = 0;  // tokens delivered to a live continuation
  std::uint64_t resumes = 0;   // accepted continuations that ran again
  std::uint64_t resume_ns_total = 0;  // accept -> running latency, summed
  std::uint64_t resume_ns_max = 0;
  double mean_resume_ns() const noexcept {
    return resumes > 0 ? static_cast<double>(resume_ns_total) /
                             static_cast<double>(resumes)
                       : 0.0;
  }
};

class waiter_hub {
 public:
  /// try_accept() verdicts — see the two-phase-notification comment above.
  enum class accept_result : std::uint8_t {
    refused,          // already claimed; pass the token to the next waiter
    accepted_inline,  // wakeup delivered under the lock; never touch again
    needs_resume,     // call resume() after the hub lock is released
  };

  /// Intrusive list node + continuation interface. Lifetime contract: a
  /// waiter must be delisted (or popped by a notify) before destruction;
  /// call sites keep the waiter on the waiting frame's stack and delist on
  /// every exit path.
  class waiter {
    friend class waiter_hub;

   public:
    waiter(const waiter&) = delete;
    waiter& operator=(const waiter&) = delete;

    /// Still on the hub's list? Callers must hold the hub lock.
    bool linked() const noexcept { return linked_; }

   protected:
    waiter() noexcept = default;
    ~waiter() { assert(!linked_ && "waiter destroyed while enlisted"); }

    /// Called by the notifier UNDER the hub lock after popping this waiter.
    /// Claim the continuation — see accept_result for the three verdicts.
    virtual accept_result try_accept() noexcept = 0;

    /// Called by the notifier AFTER releasing the hub lock, only when
    /// try_accept() returned needs_resume: actually run the continuation.
    /// A waiter that accepted inline never receives this call.
    virtual void resume() noexcept { assert(false && "inline-accepted"); }

    std::uint64_t accept_ts_ = 0;  // set under the hub lock at accept time

   private:
    waiter* prev_ = nullptr;
    waiter* next_ = nullptr;
    bool linked_ = false;
  };

  waiter_hub() = default;
  waiter_hub(const waiter_hub&) = delete;
  waiter_hub& operator=(const waiter_hub&) = delete;

  /// The hub mutex doubles as the caller's predicate lock (closed flags,
  /// ready queues). Take it once, do enlist + re-check + commit under it.
  std::unique_lock<std::mutex> lock() const {
    return std::unique_lock<std::mutex>(m_);
  }

  /// Producer-side fast path: seq_cst, pairs with enlist()'s seq_cst
  /// increment. Reading 0 licenses skipping notify entirely.
  bool maybe_waiters() const noexcept {
    return count_.load(std::memory_order_seq_cst) > 0;
  }

  /// FIFO-append `w`. The seq_cst count bump happens here, BEFORE the
  /// caller's predicate re-check (the waiter half of the Dekker pairing).
  void enlist(waiter& w, const std::unique_lock<std::mutex>& lk) {
    assert(lk.owns_lock() && lk.mutex() == &m_);
    (void)lk;
    assert(!w.linked_);
    w.prev_ = tail_;
    w.next_ = nullptr;
    if (tail_) {
      tail_->next_ = &w;
    } else {
      head_ = &w;
    }
    tail_ = &w;
    w.linked_ = true;
    count_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Unlink `w` if still enlisted; no-op (returns false) when a notify
  /// already popped it. Every waiter exit path calls this.
  bool delist(waiter& w, const std::unique_lock<std::mutex>& lk) {
    assert(lk.owns_lock() && lk.mutex() == &m_);
    (void)lk;
    if (!w.linked_) return false;
    unlink(w);
    return true;
  }

  /// The waiter is about to actually suspend (predicate re-checked false).
  /// Counts the park.
  void commit_park(const std::unique_lock<std::mutex>& lk) {
    assert(lk.owns_lock() && lk.mutex() == &m_);
    (void)lk;
    ++parks_;
  }

  /// Deliver one token: pop waiters until one accepts; if the acceptor asked
  /// for a post-unlock resume, run it after releasing the lock. The overload
  /// taking a lock consumes it (callers that flip a predicate under the hub
  /// lock hand the same lock over).
  void notify_one() { notify_one(lock()); }
  void notify_one(std::unique_lock<std::mutex> lk) {
    token t = pop_one(lk);
    lk.unlock();
    if (t.to_resume) t.to_resume->resume();
  }

  /// Deliver a token to every current waiter (close/shutdown paths). Only
  /// needs_resume waiters reach the post-unlock fire list — inline acceptors
  /// may be destroyed the instant the lock drops.
  void notify_all() { notify_all(lock()); }
  void notify_all(std::unique_lock<std::mutex> lk) {
    waiter* fire = nullptr;  // reuse next_ as the unlocked fire-list link
    for (;;) {
      token t = pop_one(lk);
      if (!t.delivered) break;
      if (t.to_resume) {
        t.to_resume->next_ = fire;
        fire = t.to_resume;
      }
    }
    lk.unlock();
    while (fire) {
      waiter* w = fire;
      fire = w->next_;  // read before resume(): resume may free the waiter
      w->next_ = nullptr;
      w->resume();
    }
  }

  /// Called by the continuation itself once it is running again after an
  /// accepted notify: counts the resume and closes the accept→running
  /// latency measurement.
  void on_resumed(const waiter& w) noexcept {
    const std::uint64_t dt = now_ns() - w.accept_ts_;
    // kpq-order: relaxed pairs-with none (latency statistics; read only by
    // the relaxed snapshot in stats(), orders no other data)
    resumes_.fetch_add(1, std::memory_order_relaxed);
    // kpq-order: relaxed pairs-with none (statistics, see above)
    resume_ns_total_.fetch_add(dt, std::memory_order_relaxed);
    // kpq-order: relaxed pairs-with none (statistics max; the CAS loop only
    // needs the cell's own modification order)
    std::uint64_t prev = resume_ns_max_.load(std::memory_order_relaxed);
    // kpq-order: relaxed pairs-with none (statistics, see above)
    while (prev < dt && !resume_ns_max_.compare_exchange_weak(
                            prev, dt, std::memory_order_relaxed)) {
    }
  }

  waiter_hub_stats stats() const {
    waiter_hub_stats s;
    {
      auto lk = lock();
      s.parks = parks_;
      s.notifies = notifies_;
    }
    // kpq-order: relaxed pairs-with none (statistics snapshot; may lag the
    // resuming threads — same contract as every counter surface here)
    s.resumes = resumes_.load(std::memory_order_relaxed);
    // kpq-order: relaxed pairs-with none (statistics, see above)
    s.resume_ns_total = resume_ns_total_.load(std::memory_order_relaxed);
    // kpq-order: relaxed pairs-with none (statistics, see above)
    s.resume_ns_max = resume_ns_max_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  void unlink(waiter& w) noexcept {
    if (w.prev_) {
      w.prev_->next_ = w.next_;
    } else {
      head_ = w.next_;
    }
    if (w.next_) {
      w.next_->prev_ = w.prev_;
    } else {
      tail_ = w.prev_;
    }
    w.prev_ = w.next_ = nullptr;
    w.linked_ = false;
    count_.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// One token delivery attempt, under the hub lock. `delivered` says a
  /// waiter consumed the token; `to_resume` is non-null only when that
  /// waiter wants its resume() after unlock. A null `to_resume` with
  /// `delivered` set means the wakeup completed inline — the waiter may be
  /// destroyed the moment the lock drops, so the hub returns no pointer to
  /// it.
  struct token {
    bool delivered = false;
    waiter* to_resume = nullptr;
  };

  /// Pop head waiters until one claims the token. A waiter whose
  /// continuation was already claimed (cancelled/timed out between unlink
  /// and accept) does NOT consume the notification.
  token pop_one(const std::unique_lock<std::mutex>& lk) {
    assert(lk.owns_lock() && lk.mutex() == &m_);
    (void)lk;
    while (head_) {
      waiter* w = head_;
      unlink(*w);
      w->accept_ts_ = now_ns();
      switch (w->try_accept()) {
        case accept_result::refused:
          continue;
        case accept_result::accepted_inline:
          ++notifies_;
          return {true, nullptr};
        case accept_result::needs_resume:
          ++notifies_;
          return {true, w};
      }
    }
    return {};
  }

  mutable std::mutex m_;
  waiter* head_ = nullptr;  // guarded by m_
  waiter* tail_ = nullptr;  // guarded by m_
  std::atomic<std::uint64_t> count_{0};  // enlisted waiters (Dekker side)
  std::uint64_t parks_ = 0;              // guarded by m_
  std::uint64_t notifies_ = 0;           // guarded by m_
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::uint64_t> resume_ns_total_{0};
  std::atomic<std::uint64_t> resume_ns_max_{0};
};

}  // namespace kpq
