// A minimal single-threaded executor/event loop for the coroutine
// front-end, dogfooding the same waiter_hub primitive the queues park on.
//
// Model (docs/ASYNC.md §3):
//   * One thread calls run(); every coroutine posted to the loop executes
//     on that thread. post() is thread-safe — queue notifiers running on
//     producer threads hand resumptions over instead of executing awaiter
//     code on queue hot paths. A post made by the loop's own thread while
//     it is inside run() skips the lock: it goes to a loop-local list that
//     only that thread touches.
//   * A hashed timer wheel supplies deadlines: sleep_until/sleep_for
//     awaitables, and callback timers (call_at) used by the queue layer for
//     bounded-admission rechecks and dequeue deadlines.
//   * run() returns when it is DRAINED: no ready handles, no pending
//     timers, and every spawn()ed task has completed — the graceful-
//     shutdown shape (close the queues, then run() until the last consumer
//     finishes). stop() requests an early return without draining.
//
// The loop's idle parking is a thread_parker on its own waiter_hub, so the
// hub mutex doubles as the ready-queue/timer/stats lock and cross-thread
// post() wakeups use exactly the enlist→re-check→park discipline every
// other waiter in the repo uses. A loop-local post needs no wakeup: the
// loop thread is running, and it checks the local list before it parks.
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <cassert>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "async/task.hpp"
#include "harness/timing.hpp"
#include "sync/waiter_hub.hpp"

namespace kpq::async {

/// Hashed timer wheel: 256 slots of `tick_ns` each (default 1 ms). Entries
/// carry absolute now_ns() deadlines; a slot holds every deadline congruent
/// to it, so advance() filters by `deadline <= now` and future revolutions
/// stay put. Deadlines already in the past fire on the next advance().
/// External synchronization required (event_loop guards it with its hub
/// lock).
class timer_wheel {
 public:
  static constexpr std::uint64_t no_deadline = ~std::uint64_t{0};

  struct entry {
    std::uint64_t deadline_ns = 0;
    std::coroutine_handle<> h{};     // resumed at fire time...
    std::function<void()> cb{};      // ...or cb() invoked instead, if set
  };

  explicit timer_wheel(std::uint64_t tick_ns = 1'000'000,
                       std::size_t slot_count = 256)
      : tick_ns_(tick_ns ? tick_ns : 1),
        slots_(slot_count ? slot_count : 1) {}

  void schedule(entry e) {
    std::uint64_t tick = e.deadline_ns / tick_ns_;
    // A deadline already behind the cursor goes into the cursor's slot, so
    // it fires on the next advance instead of a revolution later.
    if (started_ && tick < last_tick_) tick = last_tick_;
    slots_[tick % slots_.size()].push_back(std::move(e));
    ++pending_;
  }

  std::size_t pending() const noexcept { return pending_; }

  /// Earliest pending deadline, or no_deadline. Full scan — the wheel is
  /// small and this only runs when the loop is about to park.
  std::uint64_t next_deadline_ns() const noexcept {
    std::uint64_t best = no_deadline;
    for (const auto& bucket : slots_) {
      for (const auto& e : bucket) {
        if (e.deadline_ns < best) best = e.deadline_ns;
      }
    }
    return best;
  }

  /// Move every entry due at `now` into `out`. Sweeps the slots the cursor
  /// passed since the previous call (at most one full revolution); the
  /// current tick's slot is re-swept next time for entries due later inside
  /// the same tick.
  void advance(std::uint64_t now, std::vector<entry>& out) {
    const std::uint64_t now_tick = now / tick_ns_;
    const std::uint64_t span = slots_.size();
    std::uint64_t from;
    if (!started_) {
      // First sweep covers a full revolution: pre-start schedules may sit
      // in any slot.
      from = now_tick >= span - 1 ? now_tick - span + 1 : 0;
      started_ = true;
    } else {
      from = last_tick_;
      if (now_tick - from >= span) from = now_tick - span + 1;
    }
    for (std::uint64_t t = from; t <= now_tick; ++t) {
      auto& bucket = slots_[t % span];
      for (std::size_t i = 0; i < bucket.size();) {
        if (bucket[i].deadline_ns <= now) {
          out.push_back(std::move(bucket[i]));
          bucket[i] = std::move(bucket.back());
          bucket.pop_back();
          --pending_;
        } else {
          ++i;
        }
      }
    }
    last_tick_ = now_tick;
  }

 private:
  std::uint64_t tick_ns_;
  std::vector<std::vector<entry>> slots_;
  std::uint64_t pending_ = 0;
  std::uint64_t last_tick_ = 0;
  bool started_ = false;
};

struct loop_stats {
  std::uint64_t resumes = 0;      // handles run off the ready queue
  std::uint64_t timer_fires = 0;  // wheel entries fired (handles + cbs)
  std::uint64_t idle_parks = 0;   // times run() actually slept
  std::uint64_t spawned = 0;
  std::uint64_t completed = 0;

  // Loop-health gauges (obs/registry.hpp event_loop_stats_like): how long
  // ready work waited before the loop got to it, how late timers fired
  // versus their deadline, and the deepest the ready queue ever got.
  // A post from the loop thread inside run() carries no timestamp: its lag
  // runs from the clock read that preceded it (the previous batch's pickup
  // or timer sweep), an upper bound on its real lag.
  std::uint64_t ready_lag_ns_total = 0;   // post() -> batch pickup, summed
  std::uint64_t ready_lag_ns_max = 0;
  std::uint64_t timer_slack_ns_total = 0;  // deadline -> fire, summed
  std::uint64_t timer_slack_ns_max = 0;
  std::uint64_t max_ready_depth = 0;  // high-water length, both ready lists

  double mean_ready_lag_ns() const noexcept {
    return resumes == 0 ? 0.0
                        : static_cast<double>(ready_lag_ns_total) /
                              static_cast<double>(resumes);
  }
  double mean_timer_slack_ns() const noexcept {
    return timer_fires == 0 ? 0.0
                            : static_cast<double>(timer_slack_ns_total) /
                                  static_cast<double>(timer_fires);
  }
};

class event_loop {
 public:
  explicit event_loop(std::uint64_t timer_tick_ns = 1'000'000)
      : wheel_(timer_tick_ns) {}
  event_loop(const event_loop&) = delete;
  event_loop& operator=(const event_loop&) = delete;

  // ------------------------------------------------------------- scheduling

  /// Thread-safe: queue `h` to run on the loop thread; wakes the loop if
  /// parked. This is how queue notifiers on producer threads hand a
  /// coroutine resumption over (async/park.hpp). On the thread inside this
  /// loop's run() it appends to the loop-local list: no lock, no clock.
  void post(std::coroutine_handle<> h) {
    if (running_loop == this) {
      local_.push_back(h);
      return;
    }
    auto lk = hub_.lock();
    ready_.push_back({h, now_ns()});
    hub_.notify_one(std::move(lk));
  }

  /// Thread-safe: resume `h` at absolute now_ns() deadline.
  void schedule_at(std::uint64_t deadline_ns, std::coroutine_handle<> h) {
    auto lk = hub_.lock();
    wheel_.schedule({deadline_ns, h, {}});
    hub_.notify_one(std::move(lk));  // re-evaluate the park deadline
  }

  /// Thread-safe: invoke `cb` on the loop thread at the deadline. The queue
  /// layer's cancellation-style timers (bounded-admission recheck, dequeue
  /// deadlines) use this — the callback claims a parked continuation.
  void call_at(std::uint64_t deadline_ns, std::function<void()> cb) {
    auto lk = hub_.lock();
    wheel_.schedule({deadline_ns, {}, std::move(cb)});
    hub_.notify_one(std::move(lk));
  }

  // ------------------------------------------------------------- awaitables

  /// Reschedule behind everything currently ready, on both lists
  /// (cooperative yield).
  auto yield() noexcept {
    struct awaiter {
      event_loop* loop;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { loop->post(h); }
      void await_resume() const noexcept {}
    };
    return awaiter{this};
  }

  auto sleep_until(std::uint64_t deadline_ns) noexcept {
    struct awaiter {
      event_loop* loop;
      std::uint64_t deadline;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        loop->schedule_at(deadline, h);
      }
      void await_resume() const noexcept {}
    };
    return awaiter{this, deadline_ns};
  }

  template <typename Rep, typename Period>
  auto sleep_for(std::chrono::duration<Rep, Period> d) noexcept {
    return sleep_until(
        now_ns() + static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                           .count()));
  }

  // ---------------------------------------------------------------- tasks

  /// Take ownership of a task and run it to completion on the loop. The
  /// frame self-destroys when done; run() counts it toward the drain.
  /// Spawned tasks must not leak exceptions (std::terminate if they do).
  void spawn(task<void> t) {
    assert(t.valid());
    {
      auto lk = hub_.lock();
      ++active_;
      ++stats_.spawned;
    }
    drive(this, std::move(t));
  }

  /// Spawned-but-not-finished count (the drain gauge).
  std::size_t active() const {
    auto lk = hub_.lock();
    return active_;
  }

  // ------------------------------------------------------------------ run

  /// Run until drained: both ready lists empty, no pending timer, and
  /// every spawned task completed. A stop() request returns earlier,
  /// leaving any remaining work queued for the next run().
  void run() {
    const running_scope scope(this);
    std::vector<std::coroutine_handle<>> batch;
    std::vector<timer_wheel::entry> due;
    for (;;) {
      batch.clear();
      {
        auto lk = hub_.lock();
        if (stop_) {
          stop_ = false;
          return;
        }
        if (!ready_.empty() || !local_.empty()) {
          // Ready-queue lag: how long each handle sat between post() and
          // this pickup (one clock read per batch, not per handle).
          const std::uint64_t pick = now_ns();
          for (const ready_item& r : ready_) {
            note_lag(pick > r.posted_ns ? pick - r.posted_ns : 0);
          }
          const std::uint64_t local_lag =
              pick > local_since_ ? pick - local_since_ : 0;
          for (std::size_t i = 0; i < local_.size(); ++i) note_lag(local_lag);
          local_since_ = pick;
        }
        // Locked list first, then the local one: a yield() lands behind
        // everything ready at this pickup. Neither list shrinks between
        // pickups, so the depth here is each interval's high-water mark.
        const std::size_t depth = ready_.size() + local_.size();
        if (depth > stats_.max_ready_depth) stats_.max_ready_depth = depth;
        batch.reserve(depth);
        for (const ready_item& r : ready_) batch.push_back(r.h);
        ready_.clear();
        batch.insert(batch.end(), local_.begin(), local_.end());
        local_.clear();
        stats_.resumes += batch.size();
      }
      for (auto h : batch) h.resume();

      due.clear();
      {
        auto lk = hub_.lock();
        const std::uint64_t now = now_ns();
        if (local_.empty()) local_since_ = now;
        wheel_.advance(now, due);
        stats_.timer_fires += due.size();
        // Timer-wheel slack: how late past its deadline each entry fired
        // (advance only hands back entries with deadline <= now).
        for (const auto& e : due) {
          const std::uint64_t slack = now - e.deadline_ns;
          stats_.timer_slack_ns_total += slack;
          if (slack > stats_.timer_slack_ns_max) {
            stats_.timer_slack_ns_max = slack;
          }
        }
      }
      for (auto& e : due) {
        if (e.cb) {
          e.cb();
        } else if (e.h) {
          e.h.resume();
        }
      }

      if (!local_.empty()) continue;  // only this thread fills it
      auto lk = hub_.lock();
      if (stop_) {
        stop_ = false;
        return;
      }
      if (!ready_.empty()) continue;
      if (active_ == 0 && wheel_.pending() == 0) return;  // drained
      const std::uint64_t next = wheel_.next_deadline_ns();
      if (next != timer_wheel::no_deadline && next <= now_ns()) continue;
      thread_parker p;
      hub_.enlist(p, lk);
      if (!ready_.empty() || stop_) {  // re-check under registration
        hub_.delist(p, lk);
        continue;
      }
      ++stats_.idle_parks;
      if (next != timer_wheel::no_deadline) {
        (void)p.park_until(
            hub_, lk,
            monotonic_clock::time_point(std::chrono::nanoseconds(next)));
      } else {
        p.park(hub_, lk);
      }
      hub_.delist(p, lk);
    }
  }

  /// Thread-safe: make run() return at the next iteration boundary.
  void stop() {
    auto lk = hub_.lock();
    stop_ = true;
    hub_.notify_all(std::move(lk));
  }

  loop_stats stats() const {
    auto lk = hub_.lock();
    return stats_;
  }

  /// The loop's own park/notify hub (stats/registry export; the idle-park
  /// discipline shares it with cross-thread post()).
  waiter_hub& hub() noexcept { return hub_; }
  const waiter_hub& hub() const noexcept { return hub_; }

 private:
  // Fire-and-forget wrapper tying the spawned frame's lifetime to its own
  // completion (the wrapper frame self-destroys at final_suspend).
  struct detached {
    struct promise_type {
      detached get_return_object() noexcept { return {}; }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() noexcept {}
      void unhandled_exception() noexcept { std::terminate(); }
    };
  };
  static detached drive(event_loop* loop, task<void> t) {
    co_await std::move(t);
    loop->task_done();
  }
  void task_done() {
    auto lk = hub_.lock();
    assert(active_ > 0);
    --active_;
    ++stats_.completed;
    hub_.notify_one(std::move(lk));  // wake run() to re-evaluate the drain
  }

  struct ready_item {
    std::coroutine_handle<> h;
    std::uint64_t posted_ns;  // for the ready-lag gauge
  };

  // The loop whose run() this thread is inside; a nested run() of another
  // loop saves and restores it.
  static inline thread_local event_loop* running_loop = nullptr;
  struct running_scope {
    explicit running_scope(event_loop* loop) noexcept
        : prev(std::exchange(running_loop, loop)) {}
    ~running_scope() { running_loop = prev; }
    running_scope(const running_scope&) = delete;
    running_scope& operator=(const running_scope&) = delete;
    event_loop* prev;
  };

  void note_lag(std::uint64_t lag) noexcept {
    stats_.ready_lag_ns_total += lag;
    if (lag > stats_.ready_lag_ns_max) stats_.ready_lag_ns_max = lag;
  }

  waiter_hub hub_;  // guards ready_/wheel_/active_/stop_/stats_; idle park
  std::deque<ready_item> ready_;
  // Loop-thread posts made inside run(); only that thread touches these.
  std::vector<std::coroutine_handle<>> local_;
  std::uint64_t local_since_ = 0;  // clock read preceding every local_ post
  timer_wheel wheel_;
  std::size_t active_ = 0;
  bool stop_ = false;
  loop_stats stats_;
};

}  // namespace kpq::async
