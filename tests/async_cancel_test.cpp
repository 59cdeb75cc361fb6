// Cancellation-path coverage for the coroutine front-end: stop_token-aware
// awaitables (pre-cancelled, cancel-while-suspended, inline and via the
// loop), destroy-while-suspended frame teardown (docs/ASYNC.md §5), a
// deadline timer outliving its frame, a notify landing while the park is
// still arming, select cancellation, and shutdown-drain exactly-once
// delivery.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "async/async_queue.hpp"
#include "async/task.hpp"
#include "core/wf_queue.hpp"
#include "support/bounded_run.hpp"
#include "sync/thread_registry.hpp"

namespace kpq::async {
namespace {

using namespace std::chrono_literals;

using async_wf = async_mpmc<wf_queue_opt<std::uint64_t>>;

TEST(AsyncCancel, PreCancelledTokenCompletesImmediatelyEmpty) {
  async_wf q(4);
  q.enqueue(1);  // an item is present, but the stop wins before the try
  std::stop_source ss;
  ss.request_stop();
  auto t = q.co_dequeue(ss.get_token());
  t.start();
  ASSERT_TRUE(t.done());  // never suspended
  EXPECT_EQ(t.take(), std::nullopt);
  EXPECT_EQ(q.hub().stats().parks, 0u);
  EXPECT_EQ(q.dequeue(), std::optional<std::uint64_t>(1));  // untouched
}

TEST(AsyncCancel, StopWhileSuspendedResumesInlineWithEmpty) {
  async_wf q(4);  // no executor: the stop callback resumes inline
  std::stop_source ss;
  auto t = q.co_dequeue(ss.get_token());
  t.start();
  ASSERT_FALSE(t.done());
  EXPECT_TRUE(q.hub().maybe_waiters());
  ss.request_stop();  // claim -> resume runs right here
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.take(), std::nullopt);
  EXPECT_FALSE(q.hub().maybe_waiters());  // claimed waiter was delisted
}

task<void> dequeue_into(async_wf& q, std::stop_token st,
                        std::optional<std::uint64_t>& out, bool& finished) {
  out = co_await q.co_dequeue(std::move(st));
  finished = true;
}

TEST(AsyncCancel, StopFromAnotherThreadWhileParkedOnLoop) {
  async_wf q(4);
  event_loop loop;
  q.set_executor(&loop);
  std::stop_source ss;
  std::optional<std::uint64_t> out = std::optional<std::uint64_t>(7);
  bool finished = false;
  loop.spawn(dequeue_into(q, ss.get_token(), out, finished));
  std::thread canceller([&] {
    std::this_thread::sleep_for(15ms);
    ss.request_stop();  // posts the resumption to the parked loop
  });
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  canceller.join();
  EXPECT_TRUE(finished);
  EXPECT_EQ(out, std::nullopt);
  EXPECT_FALSE(q.hub().maybe_waiters());
}

TEST(AsyncCancel, StopRacingARealItemDeliversAtMostOnce) {
  // The claim has exactly one winner: either the item arrives (value) or
  // the stop does (nullopt) — and a nullopt must leave the item in the
  // queue, never consume-and-drop it.
  for (int round = 0; round < 50; ++round) {
    async_wf q(4);
    std::stop_source ss;
    auto t = q.co_dequeue(ss.get_token());
    t.start();
    std::thread producer([&] { q.enqueue(42); });
    std::thread stopper([&] { ss.request_stop(); });
    producer.join();
    stopper.join();
    ASSERT_TRUE(t.done());
    auto got = t.take();
    if (got) {
      EXPECT_EQ(*got, 42u);
      EXPECT_EQ(q.dequeue(), std::nullopt);
    } else {
      EXPECT_EQ(q.dequeue(), std::optional<std::uint64_t>(42));
    }
  }
}

TEST(AsyncCancel, DestroyWhileSuspendedUnhooksTheWaiter) {
  async_wf q(4);
  {
    auto t = q.co_dequeue();
    t.start();
    ASSERT_FALSE(t.done());
    EXPECT_TRUE(q.hub().maybe_waiters());
  }  // task dtor destroys the suspended frame; awaiter dtor claims + delists
  EXPECT_FALSE(q.hub().maybe_waiters());
  // A later enqueue must not touch the dead frame (the silent claim made
  // the node refuse tokens) — and the item stays dequeueable.
  q.enqueue(5);
  EXPECT_EQ(q.dequeue(), std::optional<std::uint64_t>(5));
}

TEST(AsyncCancel, DestroyWithPendingDeadlineLeavesAnInertTimer) {
  async_wf q(4);
  event_loop loop;
  q.set_executor(&loop);
  {
    auto t = q.co_dequeue_for(5ms);
    t.start();
    ASSERT_FALSE(t.done());
  }  // the frame dies; its deadline stays on the loop's timer heap
  EXPECT_FALSE(q.hub().maybe_waiters());
  // Runs past the deadline: the late timer must find the wait already
  // claimed by the teardown and resume nothing.
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  q.enqueue(3);
  EXPECT_EQ(q.dequeue(), std::optional<std::uint64_t>(3));
}

TEST(AsyncCancel, NotifyDuringParkNeverRacesTheParkingThread) {
  // No executor, so a notify that claims a parked coroutine resumes it
  // inline on the producer's thread. The producer enqueues as soon as the
  // wait is enlisted, while the parking thread may still be arming its
  // stop callback: that notify must not resume the coroutine until the
  // parking thread is done with the awaiter.
  for (int round = 0; round < 200; ++round) {
    async_wf q(4);
    std::stop_source ss;  // a live token: the park arms a stop callback
    std::thread producer([&] {
      while (!q.hub().maybe_waiters()) {
      }
      q.enqueue(static_cast<std::uint64_t>(round));
    });
    auto t = q.co_dequeue(ss.get_token());
    t.start();
    producer.join();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.take(),
              std::optional<std::uint64_t>(static_cast<std::uint64_t>(round)));
  }
}

TEST(AsyncCancel, DestroySuspendedSelectUnhooksEveryHub) {
  async_wf q0(4), q1(4);
  {
    auto t = co_select<wf_queue_opt<std::uint64_t>>({&q0, &q1});
    t.start();
    ASSERT_FALSE(t.done());
    EXPECT_TRUE(q0.hub().maybe_waiters());
    EXPECT_TRUE(q1.hub().maybe_waiters());
  }
  EXPECT_FALSE(q0.hub().maybe_waiters());
  EXPECT_FALSE(q1.hub().maybe_waiters());
  q0.enqueue(1);
  q1.enqueue(2);
  EXPECT_EQ(q0.dequeue(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(q1.dequeue(), std::optional<std::uint64_t>(2));
}

task<void> select_into(std::vector<async_wf*> qs, std::stop_token st,
                       select_result<std::uint64_t>& out) {
  out = co_await co_select<wf_queue_opt<std::uint64_t>>(std::move(qs),
                                                        std::move(st));
}

TEST(AsyncCancel, SelectStopWhileSuspendedCompletesClosed) {
  async_wf q0(4), q1(4);
  event_loop loop;
  q0.set_executor(&loop);
  q1.set_executor(&loop);
  std::stop_source ss;
  select_result<std::uint64_t> out;
  loop.spawn(select_into({&q0, &q1}, ss.get_token(), out));
  std::thread canceller([&] {
    std::this_thread::sleep_for(10ms);
    ss.request_stop();
  });
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  canceller.join();
  EXPECT_EQ(out.value, std::nullopt);
  EXPECT_FALSE(out.open);
  EXPECT_FALSE(q0.hub().maybe_waiters());
  EXPECT_FALSE(q1.hub().maybe_waiters());
}

TEST(AsyncCancel, SelectPreCancelledCompletesClosed) {
  async_wf q0(4), q1(4);
  std::stop_source ss;
  ss.request_stop();
  auto t = co_select<wf_queue_opt<std::uint64_t>>({&q0, &q1}, ss.get_token());
  t.start();
  ASSERT_TRUE(t.done());
  auto r = t.take();
  EXPECT_EQ(r.value, std::nullopt);
  EXPECT_FALSE(r.open);
}

task<void> drain_counted(async_wf& q, std::multiset<std::uint64_t>& sink,
                         std::atomic<int>& done) {
  for (;;) {
    auto v = co_await q.co_dequeue();
    if (!v) {
      done.fetch_add(1);
      co_return;
    }
    sink.insert(*v);
  }
}

// Graceful shutdown: close() while consumers are parked mid-stream. Every
// enqueued item is delivered to exactly one consumer BEFORE the empty
// completion — close drains, it does not drop.
TEST(AsyncCancel, ShutdownDrainDeliversEverythingExactlyOnce) {
  constexpr int kConsumers = 6;
  constexpr std::uint64_t kItems = 900;
  async_wf q(8);
  event_loop loop;
  q.set_executor(&loop);
  std::vector<std::multiset<std::uint64_t>> sinks(kConsumers);
  std::atomic<int> done{0};
  for (int c = 0; c < kConsumers; ++c) {
    loop.spawn(drain_counted(q, sinks[c], done));
  }
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      q.enqueue(i);
      if (i % 128 == 0) std::this_thread::yield();  // let consumers park
    }
    q.close();  // shutdown signal races in-flight deliveries
  });
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  producer.join();
  EXPECT_EQ(done.load(), kConsumers);  // every consumer saw the close
  std::multiset<std::uint64_t> all;
  for (const auto& s : sinks) all.insert(s.begin(), s.end());
  ASSERT_EQ(all.size(), kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(all.count(i), 1u) << "value " << i;
  }
  EXPECT_EQ(q.dequeue(), std::nullopt);  // drained dry
}

}  // namespace
}  // namespace kpq::async
