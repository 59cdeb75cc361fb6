// A minimal single-threaded executor/event loop for the coroutine
// front-end.
//
// Model (docs/ASYNC.md §3):
//   * One thread calls run(); every coroutine posted to the loop executes
//     on that thread. post() is thread-safe — queue notifiers running on
//     producer threads hand resumptions over instead of executing awaiter
//     code on queue hot paths. A post made by the loop's own thread while
//     it is inside run() skips the lock: it goes to a loop-local list that
//     only that thread touches.
//   * A min-heap of deadline callbacks supplies timers: the sleep_until/
//     sleep_for awaitables, and call_at, which the queue layer uses for
//     dequeue deadlines.
//   * run() returns when it is DRAINED: no ready handles, no pending
//     timers, and every spawn()ed task has completed — the graceful-
//     shutdown shape (close the queues, then run() until the last consumer
//     finishes). stop() requests an early return without draining.
//
// One mutex guards the ready list, the timers, the drain count, the stop
// flag and the stats. run() re-checks its predicates under it and sleeps on
// a condition variable until the earliest deadline; every cross-thread
// change notifies that variable under the same mutex. A loop-local post
// needs no wakeup: the loop thread is running, and it checks the local
// list before it sleeps.
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "async/task.hpp"
#include "harness/timing.hpp"

namespace kpq::async {

struct loop_stats {
  std::uint64_t resumes = 0;      // handles run off the ready queue
  std::uint64_t timer_fires = 0;  // timer callbacks fired
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
  // ------------------------------------------------------------- scheduling

  /// Thread-safe: queue `h` to run on the loop thread; wakes the loop if
  /// it sleeps. This is how queue notifiers on producer threads hand a
  /// coroutine resumption over (async/park.hpp). On the thread inside this
  /// loop's run() it appends to the loop-local list: no lock, no clock.
  void post(std::coroutine_handle<> h) {
    if (running_loop == this) {
      local_.push_back(h);
      return;
    }
    const std::lock_guard lk(m_);
    ready_.push_back({h, now_ns()});
    // Every notify is made under the lock: the moment it drops, run() may
    // drain and return, and its owner destroy the loop.
    wake_.notify_one();
  }

  /// Thread-safe: invoke `cb` on the loop thread at absolute now_ns()
  /// `deadline_ns`; a deadline already past fires on the next pass. The
  /// queue layer's dequeue deadlines use this — the callback claims a
  /// parked continuation.
  void call_at(std::uint64_t deadline_ns, std::function<void()> cb) {
    const std::lock_guard lk(m_);
    timers_.push_back({deadline_ns, std::move(cb)});
    std::push_heap(timers_.begin(), timers_.end(), later);
    wake_.notify_one();  // re-evaluate the sleep's deadline
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
        loop->call_at(deadline, [h] { h.resume(); });
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
      const std::lock_guard lk(m_);
      ++active_;
      ++stats_.spawned;
    }
    drive(this, std::move(t));
  }

  /// Spawned-but-not-finished count (the drain gauge).
  std::size_t active() const {
    const std::lock_guard lk(m_);
    return active_;
  }

  // ------------------------------------------------------------------ run

  /// Run until drained: both ready lists empty, no pending timer, and
  /// every spawned task completed. A stop() request returns earlier,
  /// leaving any remaining work queued for the next run().
  void run() {
    const running_scope scope(this);
    std::vector<std::coroutine_handle<>> batch;
    std::vector<std::function<void()>> due;
    for (;;) {
      batch.clear();
      {
        const std::lock_guard lk(m_);
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
        const std::lock_guard lk(m_);
        const std::uint64_t now = now_ns();
        if (local_.empty()) local_since_ = now;
        while (!timers_.empty() && timers_.front().deadline_ns <= now) {
          std::pop_heap(timers_.begin(), timers_.end(), later);
          // Timer slack: how late past its deadline each callback fires.
          const std::uint64_t slack = now - timers_.back().deadline_ns;
          stats_.timer_slack_ns_total += slack;
          if (slack > stats_.timer_slack_ns_max) {
            stats_.timer_slack_ns_max = slack;
          }
          due.push_back(std::move(timers_.back().cb));
          timers_.pop_back();
        }
        stats_.timer_fires += due.size();
      }
      for (auto& cb : due) cb();

      if (!local_.empty()) continue;  // only this thread fills it
      std::unique_lock lk(m_);
      if (stop_) {
        stop_ = false;
        return;
      }
      if (!ready_.empty()) continue;
      if (active_ == 0 && timers_.empty()) return;  // drained
      if (timers_.empty()) {
        ++stats_.idle_parks;
        wake_.wait(lk);
        continue;
      }
      const std::uint64_t next = timers_.front().deadline_ns;
      if (next <= now_ns()) continue;
      ++stats_.idle_parks;
      (void)wake_.wait_until(
          lk, monotonic_clock::time_point(std::chrono::nanoseconds(next)));
    }
  }

  /// Thread-safe: make run() return at the next iteration boundary.
  void stop() {
    const std::lock_guard lk(m_);
    stop_ = true;
    wake_.notify_one();
  }

  loop_stats stats() const {
    const std::lock_guard lk(m_);
    return stats_;
  }

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
    const std::lock_guard lk(m_);
    assert(active_ > 0);
    --active_;
    ++stats_.completed;
    wake_.notify_one();  // wake run() to re-evaluate the drain
  }

  struct ready_item {
    std::coroutine_handle<> h;
    std::uint64_t posted_ns;  // for the ready-lag gauge
  };

  struct timer {
    std::uint64_t deadline_ns;
    std::function<void()> cb;
  };
  // Heap order: the earliest deadline sits at timers_.front().
  static bool later(const timer& a, const timer& b) noexcept {
    return a.deadline_ns > b.deadline_ns;
  }

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

  mutable std::mutex m_;  // guards ready_/timers_/active_/stop_/stats_
  std::condition_variable wake_;  // run() sleeps on it
  std::deque<ready_item> ready_;
  // Loop-thread posts made inside run(); only that thread touches these.
  std::vector<std::coroutine_handle<>> local_;
  std::uint64_t local_since_ = 0;  // clock read preceding every local_ post
  std::vector<timer> timers_;  // a min-heap by deadline_ns
  std::size_t active_ = 0;
  bool stop_ = false;
  loop_stats stats_;
};

}  // namespace kpq::async
