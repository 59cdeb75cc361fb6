// async_mpmc<Q>: the coroutine front-end over any mpmc_queue.
//
// Layering (docs/ASYNC.md): the inner queue's operations stay wait-free —
// a co_dequeue FIRST tries the plain wait-free dequeue and only suspends
// when it returns empty, exactly as blocking_adapter only sleeps on empty.
// Suspension is therefore outside the core's step bound (ALGORITHM.md §9),
// and plain threads interoperate freely with coroutines on the same queue:
// enqueue() here is the synchronous producer path, and its notify can
// resume a parked coroutine just as it wakes a parked thread.
//
// The awaitables follow the waiter_hub discipline (enlist → re-check →
// commit_park) with a coro_resumer continuation, plus three claim rivals:
// stop_token cancellation, deadline timers on the executor's wheel, and
// frame teardown. co_dequeue is a retry LOOP over a one-shot awaiter — a
// woken coroutine that loses the item to a faster consumer re-parks, same
// as dequeue_blocking's loop.
//
// Bounded backpressure: when Q is bounded-with-admission
// (bounded_admission_queue below — bounded_wf_queue qualifies), co_enqueue
// polls try_enqueue_nowait and parks on the queue's room_hub with a timer
// recheck at room_recheck_interval(), mirroring the sync block policy's
// liveness backstop for room freed by reclamation without a notify.
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <atomic>
#include <cassert>
#include <chrono>
#include <concepts>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <stop_token>
#include <utility>

#include "async/coro_waiter.hpp"
#include "async/event_loop.hpp"
#include "async/task.hpp"
#include "core/queue_concepts.hpp"
#include "harness/timing.hpp"
#include "sync/thread_registry.hpp"
#include "sync/waiter_hub.hpp"

namespace kpq::async {

/// A bounded queue whose admission the async layer can drive: one-shot
/// room poll, a hub its room waiters park on, and the recheck interval
/// bounding staleness when space appears without a notify.
template <typename Q>
concept bounded_admission_queue =
    requires(Q& q, typename Q::value_type v, std::uint32_t tid) {
      { q.try_enqueue_nowait(std::move(v), tid) } -> std::same_as<bool>;
      { q.room_hub() } -> std::same_as<waiter_hub&>;
      { std::as_const(q).has_room_hint() } -> std::same_as<bool>;
      { std::as_const(q).closed() } -> std::same_as<bool>;
      {
        std::as_const(q).room_recheck_interval()
      } -> std::convertible_to<std::chrono::nanoseconds>;
    };

template <typename Q>
  requires mpmc_queue<Q>
class async_mpmc;

namespace detail {

/// One parked wait for "an item or a state change" on the queue's
/// not-empty hub. await_resume reports {value, open}; the co_dequeue loop
/// retries while open and empty (steal races re-park).
template <typename Q>
struct dequeue_step {
  using value_type = typename Q::value_type;
  struct outcome {
    std::optional<value_type> value;
    bool open = true;
  };

  async_mpmc<Q>& aq;
  std::stop_token st;
  std::uint64_t deadline_ns;  // 0 = none; needs an executor for the timer

  std::optional<value_type> value{};
  bool open = true;
  bool parked = false;
  std::shared_ptr<coro_resumer> node{};

  struct canceller {
    std::shared_ptr<coro_resumer> n;
    waiter_hub* hub;
    void operator()() const noexcept { (void)n->claim_cancel(*hub); }
  };
  std::optional<std::stop_callback<canceller>> stop_cb{};

  dequeue_step(async_mpmc<Q>& q, std::stop_token token,
               std::uint64_t deadline) noexcept
      : aq(q), st(std::move(token)), deadline_ns(deadline) {}
  dequeue_step(const dequeue_step&) = delete;
  dequeue_step& operator=(const dequeue_step&) = delete;

  ~dequeue_step() {
    // Destroy-while-suspended: the frame is torn down with the node still
    // enlisted — claim it quietly so no notifier resumes a dead frame.
    // Contract (docs/ASYNC.md §5): only legal when no notify/cancel can be
    // concurrently in flight.
    stop_cb.reset();
    if (parked && node) (void)node->claim_silent(aq.hub());
  }

  bool await_ready() {
    if (st.stop_requested()) {
      open = false;
      return true;
    }
    if ((value = aq.try_dequeue(this_thread_id()))) return true;
    return false;
  }

  bool await_suspend(std::coroutine_handle<> h) {
    node = std::make_shared<coro_resumer>();
    waiter_hub& hub = aq.hub();
    auto lk = hub.lock();
    node->arm(h, aq.executor());
    hub.enlist(*node, lk);
    // Re-check under registration (Dekker): no enqueue slips past unseen.
    if ((value = aq.try_dequeue(this_thread_id()))) {
      hub.delist(*node, lk);
      node->disarm();
      return false;
    }
    if (aq.closed() || st.stop_requested()) {
      open = false;
      hub.delist(*node, lk);
      node->disarm();
      return false;
    }
    hub.commit_park(*node, lk);
    parked = true;
    lk.unlock();
    // Rivals armed only after the park is committed; the shared_ptr keeps
    // the node alive for a late timer even after this awaiter is gone (a
    // fired node never re-arms, so the late claim is a no-op).
    if (deadline_ns != 0) {
      assert(aq.executor() && "dequeue deadlines need an executor");
      aq.executor()->call_at(deadline_ns, [n = node, hp = &hub]() noexcept {
        (void)n->claim_cancel(*hp);
      });
    }
    if (st.stop_possible()) stop_cb.emplace(st, canceller{node, &hub});
    return true;
  }

  outcome await_resume() {
    // Deregister the stop callback BEFORE touching shared state; its dtor
    // waits out an in-flight invocation.
    stop_cb.reset();
    if (parked) {
      aq.hub().on_resumed(*node);
      // Resumption context may differ from the suspending thread — re-read
      // the dense id, never reuse one captured before the suspension.
      if (!value) value = aq.try_dequeue(this_thread_id());
      if (!value && (aq.closed() || st.stop_requested())) open = false;
    }
    return outcome{std::move(value), open};
  }
};

/// One parked wait for bounded-queue room (co_enqueue backpressure). The
/// timer recheck is mandatory: reclamation can return space with no
/// dequeue — and hence no notify — attached (bounded_wf_queue.hpp).
template <typename Q>
struct room_step {
  async_mpmc<Q>& aq;
  bool open = true;
  bool parked = false;
  std::shared_ptr<coro_resumer> node{};

  explicit room_step(async_mpmc<Q>& q) noexcept : aq(q) {}
  room_step(const room_step&) = delete;
  room_step& operator=(const room_step&) = delete;

  ~room_step() {
    if (parked && node) (void)node->claim_silent(aq.queue().room_hub());
  }

  bool await_ready() {
    if (aq.queue().has_room_hint()) return true;
    if (aq.queue().closed()) {
      open = false;
      return true;
    }
    return false;
  }

  bool await_suspend(std::coroutine_handle<> h) {
    assert(aq.executor() && "bounded co_enqueue needs an executor (timer)");
    node = std::make_shared<coro_resumer>();
    waiter_hub& hub = aq.queue().room_hub();
    auto lk = hub.lock();
    node->arm(h, aq.executor());
    hub.enlist(*node, lk);
    if (aq.queue().has_room_hint() || aq.queue().closed()) {
      open = !aq.queue().closed();
      hub.delist(*node, lk);
      node->disarm();
      return false;
    }
    hub.commit_park(*node, lk);
    parked = true;
    lk.unlock();
    const auto recheck = std::chrono::duration_cast<std::chrono::nanoseconds>(
        aq.queue().room_recheck_interval());
    aq.executor()->call_at(
        now_ns() + static_cast<std::uint64_t>(recheck.count()),
        [n = node, hp = &hub]() noexcept { (void)n->claim_cancel(*hp); });
    return true;
  }

  /// True while the queue is open (room may or may not exist — the
  /// co_enqueue loop re-polls); false once closed.
  bool await_resume() {
    if (parked) aq.queue().room_hub().on_resumed(*node);
    return open && !aq.queue().closed();
  }
};

}  // namespace detail

template <typename Q>
  requires mpmc_queue<Q>
class async_mpmc {
 public:
  using value_type = typename Q::value_type;
  using inner_type = Q;

  template <typename... Args>
  explicit async_mpmc(Args&&... args) : q_(std::forward<Args>(args)...) {}
  async_mpmc(const async_mpmc&) = delete;
  async_mpmc& operator=(const async_mpmc&) = delete;

  /// Attach the event loop notified coroutines resume on. Without one,
  /// notifiers resume coroutines INLINE on their own thread (fine for
  /// tests; services want the loop). Set before any waiter parks.
  void set_executor(event_loop* loop) noexcept { exec_ = loop; }
  event_loop* executor() const noexcept { return exec_; }

  // ---------------------------------------------------- synchronous side

  /// Wait-free (as the inner queue); wakes one parked consumer — thread or
  /// coroutine alike — via the shared hub.
  void enqueue(value_type v, std::uint32_t tid) {
    q_.enqueue(std::move(v), tid);
    if (hub_.maybe_waiters()) hub_.notify_one();
  }
  void enqueue(value_type v) { enqueue(std::move(v), this_thread_id()); }

  std::optional<value_type> try_dequeue(std::uint32_t tid) {
    return q_.dequeue(tid);
  }
  std::optional<value_type> try_dequeue() {
    return try_dequeue(this_thread_id());
  }

  /// Close: parked consumers drain what is left, then complete with
  /// nullopt; room waiters of a bounded inner queue are released too.
  void close() {
    if constexpr (bounded_admission_queue<Q>) q_.close();
    auto lk = hub_.lock();
    closed_.store(true, std::memory_order_seq_cst);
    hub_.notify_all(std::move(lk));
  }
  bool closed() const noexcept {
    return closed_.load(std::memory_order_seq_cst);
  }

  // ------------------------------------------------------ coroutine side

  /// Await one element. Completes with nullopt only when the queue is
  /// closed-and-drained or `st` was stopped.
  task<std::optional<value_type>> co_dequeue(std::stop_token st = {}) {
    for (;;) {
      detail::dequeue_step<Q> step(*this, st, 0);
      auto r = co_await step;
      if (r.value) co_return std::move(r.value);
      if (!r.open) co_return std::nullopt;
    }
  }

  /// co_dequeue with a deadline (needs an executor for the timer wheel).
  template <typename Rep, typename Period>
  task<std::optional<value_type>> co_dequeue_for(
      std::chrono::duration<Rep, Period> timeout, std::stop_token st = {}) {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           timeout)
                           .count());
    for (;;) {
      detail::dequeue_step<Q> step(*this, st, deadline);
      auto r = co_await step;
      if (r.value) co_return std::move(r.value);
      if (!r.open || now_ns() >= deadline) co_return std::nullopt;
    }
  }

  /// Await admission + insert. Unbounded inner queues complete
  /// synchronously (uniform shape); bounded ones suspend on backpressure.
  /// Returns false only when the queue was closed before admission.
  task<bool> co_enqueue(value_type v) {
    if constexpr (bounded_admission_queue<Q>) {
      for (;;) {
        if (q_.closed()) co_return false;
        // Fresh tid each attempt: post-suspension context may differ.
        if (q_.try_enqueue_nowait(value_type(v), this_thread_id())) {
          if (hub_.maybe_waiters()) hub_.notify_one();
          co_return true;
        }
        detail::room_step<Q> step(*this);
        if (!co_await step) co_return false;  // closed while waiting
      }
    } else {
      if (closed()) co_return false;
      enqueue(std::move(v), this_thread_id());
      co_return true;
    }
  }

  // --------------------------------------------------------------- access

  Q& queue() noexcept { return q_; }
  const Q& queue() const noexcept { return q_; }

  /// The not-empty hub (park/resume stats; select_step enlists here).
  waiter_hub& hub() noexcept { return hub_; }
  const waiter_hub& hub() const noexcept { return hub_; }

 private:
  Q q_;
  waiter_hub hub_;  // not-empty waiters (coroutines and threads)
  std::atomic<bool> closed_{false};  // written under the hub lock
  event_loop* exec_ = nullptr;
};

}  // namespace kpq::async
