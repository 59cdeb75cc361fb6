// Unit tests for the async runtime pieces that do not involve queues:
// task<T> (laziness, chaining, exceptions, frame recycling) and the event
// loop (FIFO ready queue, yield interleaving, sleep ordering, timers that
// fire only when due, drain-on-completion, stop, cross-thread wakeups of a
// sleeping loop, the loop-local ready list).
#include "async/event_loop.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "async/task.hpp"
#include "support/bounded_run.hpp"

// A counting replacement of the global operator new/delete, so the frame
// recycling tests can see which frames still reach the global heap. Left
// out under ASan, with the tests that count: ASan's own operators stay in
// place, and its task frames bypass the free lists (async/task.hpp).
#if !defined(__SANITIZE_ADDRESS__)
namespace {
thread_local constinit std::uint64_t global_news = 0;
thread_local constinit std::uint64_t global_deletes = 0;
}  // namespace

// The replacements pair malloc with free. GCC cannot see that they replace
// the global pair and flags free() on a pointer from operator new wherever
// both are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++global_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p) ++global_deletes;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#pragma GCC diagnostic pop
#endif

namespace kpq::async {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------------- task

task<void> set_flag(bool& flag) {
  flag = true;
  co_return;
}

TEST(Task, IsLazyUntilStarted) {
  bool ran = false;
  task<void> t = set_flag(ran);
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(ran);  // initial_suspend = suspend_always
  t.start();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(t.done());
}

task<int> leaf() { co_return 21; }
task<int> parent() { co_return co_await leaf() * 2; }

TEST(Task, ChainsThroughCoAwaitWithSymmetricTransfer) {
  task<int> t = parent();
  t.start();  // no external suspension points: runs to completion
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.take(), 42);
}

task<int> thrower() {
  throw std::runtime_error("boom");
  co_return 0;  // unreachable; makes this a coroutine
}

TEST(Task, ExceptionPropagatesFromTake) {
  task<int> t = thrower();
  t.start();
  ASSERT_TRUE(t.done());
  EXPECT_THROW((void)t.take(), std::runtime_error);
}

task<int> rethrower() { co_return co_await thrower(); }

TEST(Task, ExceptionPropagatesThroughCoAwait) {
  task<int> t = rethrower();
  t.start();
  ASSERT_TRUE(t.done());
  EXPECT_THROW((void)t.take(), std::runtime_error);
}

TEST(Task, DestroyingUnstartedTaskFreesTheFrame) {
  bool ran = false;
  { task<void> t = set_flag(ran); }  // dtor destroys a never-started frame
  EXPECT_FALSE(ran);
}

#if !defined(__SANITIZE_ADDRESS__)
task<int> round_trip_leaf(int x) { co_return x + 1; }
task<int> round_trip_mid(int x) { co_return co_await round_trip_leaf(x) * 2; }

TEST(Task, RoundTripsStopCallingGlobalNewAfterWarmUp) {
  auto round = [](int i) {
    task<int> t = round_trip_mid(i);
    t.start();
    return t.take();
  };
  for (int i = 0; i < 4; ++i) (void)round(i);  // warm the free lists
  const std::uint64_t news = global_news;
  std::int64_t sum = 0;
  for (int i = 0; i < 1000; ++i) sum += round(i);
  EXPECT_EQ(global_news, news) << "a task frame reached the global heap";
  EXPECT_EQ(sum, 1000 * 999 + 2000);  // sum of (i + 1) * 2
}

TEST(Task, ThreadExitReturnsCachedFramesToTheHeap) {
  std::uint64_t cached = 0;
  std::uint64_t deletes_before_exit = 0;
  std::atomic<std::uint64_t> deletes_at_exit{0};
  struct report {  // destroyed after the free lists' drain ran
    std::atomic<std::uint64_t>* out;
    ~report() { out->store(global_deletes); }
  };
  std::thread([&] {
    thread_local report r{&deletes_at_exit};  // constructed first
    {
      std::vector<task<int>> live;
      for (int i = 0; i < 8; ++i) live.push_back(round_trip_leaf(i));
    }  // eight frames now sit on this thread's free list
    cached = global_news - global_deletes;
    deletes_before_exit = global_deletes;
  }).join();
  EXPECT_EQ(cached, 8u);
  EXPECT_GE(deletes_at_exit.load() - deletes_before_exit, cached)
      << "cached frames outlived the thread";
}
#endif

// ------------------------------------------------------------- event loop

task<void> append_after_yield(event_loop& loop, std::vector<int>& order,
                              int id) {
  co_await loop.yield();
  order.push_back(id);
}

TEST(EventLoop, ReadyQueueRunsInPostOrder) {
  event_loop loop;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    loop.spawn(append_after_yield(loop, order, i));
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  const loop_stats s = loop.stats();
  EXPECT_EQ(s.spawned, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_GE(s.resumes, 4u);
  EXPECT_EQ(loop.active(), 0u);
}

task<void> append_twice(event_loop& loop, std::vector<std::string>& order,
                        std::string tag) {
  co_await loop.yield();
  order.push_back(tag + "0");
  co_await loop.yield();
  order.push_back(tag + "1");
}

TEST(EventLoop, YieldInterleavesCooperatively) {
  event_loop loop;
  std::vector<std::string> order;
  loop.spawn(append_twice(loop, order, "a"));
  loop.spawn(append_twice(loop, order, "b"));
  loop.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"a0", "b0", "a1", "b1"}));
}

task<void> sleep_then_append(event_loop& loop, std::chrono::milliseconds d,
                             std::vector<char>& order, char id) {
  co_await loop.sleep_for(d);
  order.push_back(id);
}

TEST(EventLoop, SleepOrdersByDeadlineAndParksIdle) {
  event_loop loop;
  std::vector<char> order;
  loop.spawn(sleep_then_append(loop, 30ms, order, 'A'));
  loop.spawn(sleep_then_append(loop, 5ms, order, 'B'));
  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(order, (std::vector<char>{'B', 'A'}));
  EXPECT_GE(dt, 29ms);  // really waited for the later deadline
  const loop_stats s = loop.stats();
  EXPECT_GE(s.timer_fires, 2u);
  EXPECT_GE(s.idle_parks, 1u);  // slept instead of spinning
}

TEST(EventLoop, StopReturnsEarlyThenResumedRunDrains) {
  event_loop loop;
  std::vector<char> order;
  loop.spawn(sleep_then_append(loop, 100ms, order, 'S'));
  std::thread stopper([&] {
    std::this_thread::sleep_for(10ms);
    loop.stop();
  });
  loop.run();  // returns at the stop, sleeper still pending
  stopper.join();
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(loop.active(), 1u);
  loop.run();  // stop flag was consumed; this run drains fully
  EXPECT_EQ(order, (std::vector<char>{'S'}));
  EXPECT_EQ(loop.active(), 0u);
}

struct capture_handle {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) noexcept { *slot = h; }
  void await_resume() const noexcept {}
};

task<void> wait_external(std::coroutine_handle<>& slot, bool& resumed) {
  co_await capture_handle{&slot};
  resumed = true;
}

TEST(EventLoop, CrossThreadPostWakesParkedLoop) {
  event_loop loop;
  std::coroutine_handle<> h{};
  bool resumed = false;
  loop.spawn(wait_external(h, resumed));  // suspends during spawn
  ASSERT_TRUE(h);
  std::thread poster([&] {
    std::this_thread::sleep_for(20ms);
    loop.post(h);  // the only wake signal the parked loop will get
  });
  // Bounded: a loop the post never wakes is stopped and the test fails.
  EXPECT_TRUE(kpq::testing::run_bounded(loop, 10s));
  poster.join();
  EXPECT_TRUE(resumed);
  EXPECT_GE(loop.stats().idle_parks, 1u);
}

// ------------------------------------------------------------------ timers

// Absolute now_ns() deadline `d` from now.
std::uint64_t from_now(std::chrono::nanoseconds d) {
  return now_ns() + static_cast<std::uint64_t>(d.count());
}

TEST(EventLoop, TimersFireOnlyWhenDue) {
  event_loop loop;
  const std::uint64_t near = from_now(5ms), far = from_now(40ms);
  std::vector<char> order;
  std::uint64_t near_at = 0, far_at = 0;
  loop.call_at(far, [&] {
    far_at = now_ns();
    order.push_back('F');
  });
  loop.call_at(near, [&] {
    near_at = now_ns();
    order.push_back('N');
  });
  loop.run();  // the pending timers keep run() alive until both fire
  EXPECT_EQ(order, (std::vector<char>{'N', 'F'}));
  EXPECT_GE(near_at, near);
  EXPECT_GE(far_at, far);
  EXPECT_EQ(loop.stats().timer_fires, 2u);
}

task<void> yield_for(event_loop& loop, std::chrono::nanoseconds d) {
  const std::uint64_t until = from_now(d);
  while (now_ns() < until) co_await loop.yield();
}

TEST(EventLoop, FarFutureTimerStaysUntilItsDeadline) {
  event_loop loop;
  // Farther out than any pass of the loop below reaches.
  const std::uint64_t far = from_now(300ms);
  std::uint64_t fired_at = 0;
  loop.call_at(far, [&] { fired_at = now_ns(); });
  // Thousands of passes sweep the timers while the far one is not due.
  loop.spawn(yield_for(loop, 20ms));
  loop.run();
  EXPECT_GE(fired_at, far);
  EXPECT_EQ(loop.stats().timer_fires, 1u);
}

task<void> call_past_deadline_then_yield(event_loop& loop, bool& fired,
                                         bool& fired_before_next_batch) {
  co_await loop.yield();  // now inside run()
  loop.call_at(1, [&fired] { fired = true; });  // long past
  co_await loop.yield();  // the next batch
  fired_before_next_batch = fired;
}

TEST(EventLoop, PastDeadlineFiresOnTheNextPass) {
  event_loop loop;
  bool fired = false, fired_before_next_batch = false;
  loop.spawn(call_past_deadline_then_yield(loop, fired,
                                           fired_before_next_batch));
  loop.run();
  EXPECT_TRUE(fired_before_next_batch);
  const loop_stats s = loop.stats();
  EXPECT_EQ(s.timer_fires, 1u);
  EXPECT_EQ(s.idle_parks, 0u);  // due at once: no sleep
}

TEST(EventLoop, TimersScheduledBeforeRunFire) {
  event_loop loop;
  int fired = 0;
  loop.call_at(1, [&fired] { ++fired; });  // already past
  loop.call_at(from_now(2ms), [&fired] { ++fired; });
  loop.run();  // nothing spawned: only the timers keep it running
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.stats().timer_fires, 2u);
}

TEST(EventLoop, TwoSpacedTimersSleepTwice) {
  event_loop loop;
  int fired = 0;
  loop.call_at(from_now(10ms), [&fired] { ++fired; });
  loop.call_at(from_now(30ms), [&fired] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_GE(loop.stats().idle_parks, 2u);  // once toward each deadline
}

// A loop sleeping toward a 5 s timer must wake at once for another
// thread's post, call_at or stop(). `wake` runs on a second thread once the
// loop sleeps; run() returns at the stop() that follows the wake.
template <typename Wake>
std::chrono::nanoseconds time_run_woken_by(event_loop& loop, Wake wake) {
  loop.call_at(from_now(5s), [] {});
  std::atomic<bool> returned{false};
  std::thread waker([&] {
    // idle_parks is bumped under the loop's lock just before the wait
    // releases it, so reading 1 means the loop sleeps.
    while (loop.stats().idle_parks == 0) {
      if (returned.load()) return;  // run() never slept: the test fails
      std::this_thread::yield();
    }
    wake();
  });
  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  const auto dt = std::chrono::steady_clock::now() - t0;
  returned.store(true);
  waker.join();
  return dt;
}

task<void> stop_when_resumed(event_loop& loop, std::coroutine_handle<>& slot) {
  co_await capture_handle{&slot};
  loop.stop();
}

TEST(EventLoop, SleepingLoopWakesForACrossThreadPost) {
  event_loop loop;
  std::coroutine_handle<> h{};
  loop.spawn(stop_when_resumed(loop, h));  // suspends during spawn
  ASSERT_TRUE(h);
  EXPECT_LT(time_run_woken_by(loop, [&] { loop.post(h); }), 2s);
  EXPECT_EQ(loop.active(), 0u);
  EXPECT_EQ(loop.stats().timer_fires, 0u);  // the 5 s timer still pends
}

TEST(EventLoop, SleepingLoopWakesForACrossThreadCallAt) {
  event_loop loop;
  EXPECT_LT(time_run_woken_by(
                loop, [&] { loop.call_at(now_ns(), [&] { loop.stop(); }); }),
            2s);
  EXPECT_EQ(loop.stats().timer_fires, 1u);  // the waker's, not the 5 s one
}

TEST(EventLoop, SleepingLoopWakesForACrossThreadStop) {
  event_loop loop;
  EXPECT_LT(time_run_woken_by(loop, [&] { loop.stop(); }), 2s);
  EXPECT_EQ(loop.stats().timer_fires, 0u);
}

// ------------------------------------------------------ the two ready lists

task<void> record_when_resumed(std::coroutine_handle<>& slot,
                               std::vector<char>& order, char id) {
  co_await capture_handle{&slot};
  order.push_back(id);
}

// `post(h)` from a thread other than the loop's, finished before returning.
void post_from_other_thread(event_loop& loop, std::coroutine_handle<> h) {
  std::thread([&loop, h] { loop.post(h); }).join();
}

task<void> post_local_then_remote(event_loop& loop, std::coroutine_handle<> l,
                                  std::coroutine_handle<> x,
                                  std::vector<char>& order, bool then_yield) {
  co_await loop.yield();  // now inside run(), on the loop thread
  loop.post(l);           // local list
  post_from_other_thread(loop, x);  // locked list, after the local post
  order.push_back('D');
  if (then_yield) {
    co_await loop.yield();  // behind l, on the local list
    order.push_back('Y');
  }
}

TEST(EventLoop, LoopThreadPostRunsNextBatchBehindOtherThreadsPosts) {
  event_loop loop;
  std::vector<char> order;
  std::coroutine_handle<> hl{}, hx{};
  task<void> l = record_when_resumed(hl, order, 'L');
  task<void> x = record_when_resumed(hx, order, 'X');
  l.start();
  x.start();
  loop.spawn(post_local_then_remote(loop, hl, hx, order, false));
  loop.run();
  // The driver's batch ran D; the next batch took the locked list (X)
  // before the local one (L), though L was posted first.
  EXPECT_EQ(order, (std::vector<char>{'D', 'X', 'L'}));
  EXPECT_TRUE(l.done());
  EXPECT_TRUE(x.done());
}

TEST(EventLoop, YieldLandsBehindBothLists) {
  event_loop loop;
  std::vector<char> order;
  std::coroutine_handle<> hl{}, hx{};
  task<void> l = record_when_resumed(hl, order, 'L');
  task<void> x = record_when_resumed(hx, order, 'X');
  l.start();
  x.start();
  loop.spawn(post_local_then_remote(loop, hl, hx, order, true));
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'D', 'X', 'L', 'Y'}));
}

TEST(EventLoop, LoopThreadPostOutsideRunGoesToTheNextRun) {
  event_loop loop;
  std::vector<char> order;
  std::coroutine_handle<> ha{}, hb{};
  task<void> a = record_when_resumed(ha, order, 'A');
  task<void> b = record_when_resumed(hb, order, 'B');
  a.start();
  b.start();
  loop.post(ha);  // this thread, before run(): the locked list
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'A'}));
  loop.post(hb);  // after run() returned: the locked list again
  EXPECT_EQ(order, (std::vector<char>{'A'}));
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
  EXPECT_TRUE(b.done());
}

task<void> post_local_then_stop(event_loop& loop, std::coroutine_handle<> h) {
  co_await loop.yield();
  loop.post(h);  // local list; run() returns before the next batch
  loop.stop();
}

TEST(EventLoop, LocalPostLeftByStopRunsInTheNextRun) {
  event_loop loop;
  std::vector<char> order;
  std::coroutine_handle<> h{};
  task<void> t = record_when_resumed(h, order, 'L');
  t.start();
  loop.spawn(post_local_then_stop(loop, h));
  loop.run();
  EXPECT_TRUE(order.empty());
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'L'}));
}

task<void> post_five_local_two_remote(
    event_loop& loop, const std::vector<std::coroutine_handle<>>& hs) {
  co_await loop.yield();
  for (int i = 0; i < 5; ++i) loop.post(hs[static_cast<std::size_t>(i)]);
  post_from_other_thread(loop, hs[5]);
  post_from_other_thread(loop, hs[6]);
}

TEST(EventLoop, StatsCountBothLists) {
  event_loop loop;
  std::vector<char> order;
  std::vector<std::coroutine_handle<>> hs(7);
  std::vector<task<void>> waiters;
  for (std::size_t i = 0; i < hs.size(); ++i) {
    waiters.push_back(
        record_when_resumed(hs[i], order, static_cast<char>('0' + i)));
    waiters.back().start();
  }
  loop.spawn(post_five_local_two_remote(loop, hs));
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'5', '6', '0', '1', '2', '3', '4'}));
  const loop_stats s = loop.stats();
  EXPECT_EQ(s.resumes, 8u);          // the driver, then all seven waiters
  EXPECT_EQ(s.max_ready_depth, 7u);  // five local + two locked at pickup
  EXPECT_GE(static_cast<double>(s.ready_lag_ns_max), s.mean_ready_lag_ns());
}

// ------------------------------------------------------- loop health gauges

task<void> yield_n(event_loop& loop, int n) {
  for (int i = 0; i < n; ++i) co_await loop.yield();
}

TEST(EventLoop, HealthGaugesTrackReadyLagAndDepth) {
  event_loop loop;
  for (int i = 0; i < 8; ++i) loop.spawn(yield_n(loop, 3));
  loop.run();
  const loop_stats s = loop.stats();
  // 8 coroutines were queued at once at least during the spawn burst.
  EXPECT_GE(s.max_ready_depth, 8u);
  EXPECT_GT(s.resumes, 0u);
  // Lag is measured per resumed handle; the max bounds the mean.
  EXPECT_GE(static_cast<double>(s.ready_lag_ns_max), s.mean_ready_lag_ns());
  EXPECT_GE(s.ready_lag_ns_max, 0u);
}

TEST(EventLoop, HealthGaugesTrackTimerSlack) {
  event_loop loop;
  std::vector<char> order;
  loop.spawn(sleep_then_append(loop, 5ms, order, 'T'));
  loop.run();
  const loop_stats s = loop.stats();
  ASSERT_GE(s.timer_fires, 1u);
  // The loop sleeps until the deadline, so the fire happens AT or AFTER
  // it — slack is well-defined and the max bounds the mean.
  EXPECT_GE(static_cast<double>(s.timer_slack_ns_max),
            s.mean_timer_slack_ns());
}

TEST(EventLoop, IdleStatsAreZeroNotGarbage) {
  event_loop loop;
  loop.run();  // nothing spawned: drains immediately
  const loop_stats s = loop.stats();
  EXPECT_EQ(s.ready_lag_ns_total, 0u);
  EXPECT_EQ(s.timer_slack_ns_total, 0u);
  EXPECT_EQ(s.max_ready_depth, 0u);
  EXPECT_EQ(s.mean_ready_lag_ns(), 0.0);    // resumes == 0 guard
  EXPECT_EQ(s.mean_timer_slack_ns(), 0.0);  // timer_fires == 0 guard
}

}  // namespace
}  // namespace kpq::async
