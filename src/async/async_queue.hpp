// async_mpmc<Q>: the coroutine front-end over any mpmc_queue.
//
// Layering (docs/ASYNC.md): the inner queue's operations stay wait-free —
// a co_dequeue FIRST tries the plain wait-free dequeue and only suspends
// when it returns empty.
// Suspension is therefore outside the core's step bound (ALGORITHM.md §9),
// and plain threads interoperate freely with coroutines on the same queue:
// enqueue() here is the synchronous producer path, and its notify resumes
// a parked coroutine.
//
// Every wait follows the waiter_hub discipline (enlist → re-check →
// commit_park) through one claim, detail::park (async/park.hpp), whose
// rivals are a notify, stop_token cancellation, a deadline timer on the
// executor, the re-check itself, and frame teardown. co_dequeue,
// co_dequeue_for and co_select are retry LOOPS over one one-shot awaiter,
// take_step — a woken coroutine that loses the item to a faster consumer
// re-parks.
//
// Enqueues never wait: co_enqueue admits through the inner queue's
// try_enqueue when it has one (bounded_wf_queue), so that queue's policy —
// reject or overwrite_oldest — decides, and a refusal is a false result.
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <atomic>
#include <chrono>
#include <concepts>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stop_token>
#include <utility>
#include <vector>

#include "async/event_loop.hpp"
#include "async/park.hpp"
#include "async/task.hpp"
#include "core/queue_concepts.hpp"
#include "harness/timing.hpp"
#include "sync/thread_registry.hpp"
#include "sync/waiter_hub.hpp"

namespace kpq::async {

template <typename Q>
  requires mpmc_queue<Q>
class async_mpmc;

/// select_result::index when no queue served a value.
inline constexpr std::size_t select_npos = ~std::size_t{0};

template <typename V>
struct select_result {
  std::optional<V> value{};
  std::size_t index = select_npos;  // which queue served the value
  bool open = true;  // false: stopped, or every queue closed-and-drained
};

namespace detail {

/// One wait for an item from any of `qs`: co_dequeue and co_dequeue_for
/// pass one queue, co_select N. The callers' loops retry while the result
/// is open and empty (an item stolen between the wakeup and the scan
/// re-parks). `Ptr` points at an async_mpmc<Q>: a raw pointer, or the
/// owning pointer async_sharded keeps its shards in. Callers co_await a
/// NAMED step: GCC 12 destroys the members of a braced prvalue awaiter
/// twice.
template <typename Q, typename Ptr = async_mpmc<Q>*>
struct take_step {
  using value_type = typename Q::value_type;

  std::span<const Ptr> qs;
  std::stop_token st;
  std::uint64_t deadline_ns;  // 0 = none; needs an executor for the timer
  std::size_t from = 0;  // the queue a pass tries first (< qs.size())
  select_result<value_type> out{};
  park waiting{};

  /// One pass over the queues from `start`; a hit lands in `out`.
  bool scan(std::size_t start) {
    // Resumption context may differ from the suspending thread — re-read
    // the dense id, never reuse one captured before the suspension.
    const std::uint32_t tid = this_thread_id();
    for (std::size_t k = 0, i = start; k < qs.size(); ++k, ++i) {
      if (i == qs.size()) i = 0;  // no division on the fast path
      if ((out.value = qs[i]->dequeue(tid))) {
        out.index = i;
        return true;
      }
    }
    return false;
  }

  bool all_closed() const noexcept {
    for (const Ptr& q : qs) {
      if (!q->closed()) return false;
    }
    return true;
  }

  bool await_ready() {
    if (st.stop_requested()) {
      out.open = false;
      return true;
    }
    return scan(from);
  }

  bool await_suspend(std::coroutine_handle<> h) {
    return waiting.suspend(
        h, qs.empty() ? nullptr : qs[0]->executor(), qs.size(),
        [this](std::size_t i) -> waiter_hub& { return qs[i]->hub(); },
        // Re-check under registration (Dekker): no enqueue or close
        // slips past unseen.
        [this] { return scan(from) || st.stop_requested() || all_closed(); },
        st, deadline_ns);
  }

  select_result<value_type> await_resume() {
    const std::size_t woke = waiting.finish();
    if (!out.value && out.open) {
      // Start at the queue whose notify woke us (its token means it had an
      // item). After a stop or a deadline the scan still runs first, so an
      // item already present is delivered.
      if (!scan(woke == park::no_hub ? 0 : woke)) {
        out.open = !st.stop_requested() && !all_closed();
      }
    }
    // The token came from queue `woke` but the item from another one (the
    // re-check hit first, or `woke`'s item was stolen): hand the token
    // back so a co-parked waiter wakes for whatever `woke` still holds.
    if (woke != park::no_hub && out.value && out.index != woke) {
      qs[woke]->hub().notify_one();
    }
    return std::move(out);
  }
};

/// co_select's loop over queues the caller keeps alive until the task
/// completes (async_sharded's shard list: no per-call copy or extra frame).
/// With `next_scan`, its passes start at the queue it names, and a served
/// item moves it to the queue after the server; without one, at queue 0.
template <typename Q, typename Ptr>
task<select_result<typename Q::value_type>> take_any(
    std::span<const Ptr> qs, std::stop_token st,
    std::atomic<std::size_t>* next_scan = nullptr) {
  std::size_t start = 0;
  // kpq-order: relaxed pairs-with none (a scan hint: any start index is
  // correct, and the item's own hand-off orders everything it carries)
  if (next_scan) start = next_scan->load(std::memory_order_relaxed);
  for (;;) {
    take_step<Q, Ptr> step{qs, st, 0, start};
    auto r = co_await step;
    if (r.value && next_scan != nullptr) {
      const std::size_t after = r.index + 1;
      // kpq-order: relaxed pairs-with none (the scan hint above)
      next_scan->store(after == qs.size() ? 0 : after,
                       std::memory_order_relaxed);
    }
    if (r.value || !r.open) co_return r;
  }
}

}  // namespace detail

template <typename Q>
  requires mpmc_queue<Q>
class async_mpmc {
 public:
  using value_type = typename Q::value_type;
  using inner_type = Q;

  template <typename... Args>
    requires std::constructible_from<Q, Args...>
  explicit async_mpmc(Args&&... args) : q_(std::forward<Args>(args)...) {}
  async_mpmc(const async_mpmc&) = delete;
  async_mpmc& operator=(const async_mpmc&) = delete;

  /// Attach the event loop notified coroutines resume on. Without one,
  /// notifiers resume coroutines INLINE on their own thread (fine for
  /// tests; services want the loop). Set before any waiter parks.
  void set_executor(event_loop* loop) noexcept { exec_ = loop; }
  event_loop* executor() const noexcept { return exec_; }

  // ---------------------------------------------------- synchronous side

  /// Wait-free (as the inner queue); wakes one parked consumer coroutine
  /// via the shared hub.
  void enqueue(value_type v, std::uint32_t tid) {
    q_.enqueue(std::move(v), tid);
    if (hub_.maybe_waiters()) hub_.notify_one();
  }
  void enqueue(value_type v) { enqueue(std::move(v), this_thread_id()); }

  /// Never suspends: empty means the inner dequeue found the queue empty.
  std::optional<value_type> dequeue(std::uint32_t tid) {
    return q_.dequeue(tid);
  }
  std::optional<value_type> dequeue() { return dequeue(this_thread_id()); }

  /// Close: parked consumers drain what is left, then complete with
  /// nullopt; later co_enqueues return false.
  void close() {
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
    async_mpmc* const self[1] = {this};
    for (;;) {
      detail::take_step<Q> step{self, st, 0};
      auto r = co_await step;
      if (r.value) co_return std::move(r.value);
      if (!r.open) co_return std::nullopt;
    }
  }

  /// co_dequeue with a deadline (needs an executor for the timer).
  template <typename Rep, typename Period>
  task<std::optional<value_type>> co_dequeue_for(
      std::chrono::duration<Rep, Period> timeout, std::stop_token st = {}) {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           timeout)
                           .count());
    async_mpmc* const self[1] = {this};
    for (;;) {
      detail::take_step<Q> step{self, st, deadline};
      auto r = co_await step;
      if (r.value) co_return std::move(r.value);
      if (!r.open || now_ns() >= deadline) co_return std::nullopt;
    }
  }

  /// Admit + insert, never suspending (uniform awaitable shape). Returns
  /// false when the queue is closed or the inner queue's admission policy
  /// refuses the element; only an admitted element notifies.
  task<bool> co_enqueue(value_type v) {
    if (closed()) co_return false;
    if constexpr (requires(std::uint32_t tid) {
                    { q_.try_enqueue(std::move(v), tid) } -> std::same_as<bool>;
                  }) {
      if (!q_.try_enqueue(std::move(v), this_thread_id())) co_return false;
      if (hub_.maybe_waiters()) hub_.notify_one();
    } else {
      enqueue(std::move(v), this_thread_id());
    }
    co_return true;
  }

  // --------------------------------------------------------------- access

  Q& queue() noexcept { return q_; }
  const Q& queue() const noexcept { return q_; }

  /// The not-empty hub (park/resume stats; co_select enlists here).
  waiter_hub& hub() noexcept { return hub_; }
  const waiter_hub& hub() const noexcept { return hub_; }

 private:
  Q q_;
  waiter_hub hub_;  // not-empty waiters (parked coroutines)
  std::atomic<bool> closed_{false};  // written under the hub lock
  event_loop* exec_ = nullptr;
};

/// Await one element from any of `queues`: one wait enlisted on every
/// queue's hub, the first claim wins, and a token the wait does not use
/// goes back to its hub. Retries internally on spurious wakeups (stolen
/// items); completes with open=false when stopped or when every queue is
/// closed-and-drained. Resumptions post to the first queue's executor —
/// attach the same loop to all queues multiplexed together.
template <typename Q>
task<select_result<typename Q::value_type>> co_select(
    std::vector<async_mpmc<Q>*> queues, std::stop_token st = {}) {
  co_return co_await detail::take_any<Q, async_mpmc<Q>*>(queues,
                                                         std::move(st));
}

}  // namespace kpq::async
