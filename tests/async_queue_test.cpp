// Tests for the coroutine queue front-end: async_mpmc awaitables (fast
// path, suspend/resume, deadlines), co_enqueue under a bounded policy,
// co_select multiplexing, the sharded composition, and a mixed
// threads-and-coroutines run cross-checked by the linearizability checker.
#include "async/async_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "async/task.hpp"
#include "core/wf_queue.hpp"
#include "scale/async_shards.hpp"
#include "storage/bounded_wf_queue.hpp"
#include "support/bounded_run.hpp"
#include "sync/thread_registry.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq::async {
namespace {

using namespace std::chrono_literals;

using async_wf = async_mpmc<wf_queue_opt<std::uint64_t>>;
using async_bounded = async_mpmc<bounded_wf_queue<std::uint64_t>>;

TEST(AsyncQueue, CoDequeueFastPathCompletesWithoutSuspending) {
  async_wf q(4);
  q.enqueue(7);
  auto t = q.co_dequeue();
  t.start();
  ASSERT_TRUE(t.done());  // await_ready hit: never parked
  EXPECT_EQ(t.take(), std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.hub().stats().parks, 0u);
}

TEST(AsyncQueue, CoDequeueSuspendsThenResumesInlineOnProducerNotify) {
  async_wf q(4);  // no executor: the notifier resumes the coroutine inline
  auto t = q.co_dequeue();
  t.start();
  ASSERT_FALSE(t.done());  // parked on the hub
  EXPECT_TRUE(q.hub().maybe_waiters());
  std::thread producer([&] { q.enqueue(99); });
  producer.join();  // enqueue's notify ran the continuation on its thread
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.take(), std::optional<std::uint64_t>(99));
  EXPECT_EQ(q.hub().stats().parks, 1u);
  EXPECT_EQ(q.hub().stats().resumes, 1u);
}

TEST(AsyncQueue, CloseDrainsThenCompletesEmpty) {
  async_wf q(4);
  q.enqueue(1);
  q.enqueue(2);
  q.close();
  auto a = q.co_dequeue();
  a.start();
  auto b = q.co_dequeue();
  b.start();
  auto c = q.co_dequeue();
  c.start();
  EXPECT_EQ(a.take(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(b.take(), std::optional<std::uint64_t>(2));
  EXPECT_EQ(c.take(), std::nullopt);  // closed-and-drained
}

task<void> consume_all(async_wf& q, std::vector<std::uint64_t>& out,
                       std::atomic<std::uint64_t>& total) {
  for (;;) {
    auto v = co_await q.co_dequeue();
    if (!v) co_return;
    out.push_back(*v);
    total.fetch_add(1, std::memory_order_relaxed);
  }
}

TEST(AsyncQueue, MultiCoroutineFanInDrainsEverythingExactlyOnce) {
  constexpr int kConsumers = 8;
  constexpr std::uint64_t kItems = 2000;
  async_wf q(8);
  event_loop loop;
  q.set_executor(&loop);

  std::vector<std::vector<std::uint64_t>> got(kConsumers);
  std::atomic<std::uint64_t> total{0};
  for (int c = 0; c < kConsumers; ++c) {
    loop.spawn(consume_all(q, got[c], total));
  }
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) q.enqueue(i);
    q.close();
  });
  // Returns when every consumer saw closed-and-drained.
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  producer.join();

  std::multiset<std::uint64_t> all;
  for (const auto& v : got) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), kItems);
  EXPECT_EQ(total.load(), kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(all.count(i), 1u) << "value " << i;
  }
}

// The Dekker pairing under load, with coroutine waiters: producers notify
// only when maybe_waiters(), consumers enlist, re-check and park. With no
// executor a notify resumes its consumer inline on the notifier's thread,
// so every hub path runs on several threads at once; each loop sleeps
// until its last consumer completes. No consumer may be stranded while
// items remain: every item is consumed exactly once.
TEST(AsyncQueue, CoroutineConsumersOnTwoLoopsLoseNoWakeups) {
  constexpr int kProducers = 2;
  constexpr std::uint64_t kPerProducer = 2000;
  async_wf q(8);
  event_loop loops[2];
  std::vector<std::uint64_t> got[2];
  std::atomic<std::uint64_t> total{0};
  for (int c = 0; c < 2; ++c) loops[c].spawn(consume_all(q, got[c], total));

  std::vector<std::thread> threads;
  for (event_loop& loop : loops) {
    threads.emplace_back([&loop] {
      EXPECT_TRUE(kpq::testing::run_bounded(loop));
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.enqueue(static_cast<std::uint64_t>(p) * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : threads) t.join();

  std::multiset<std::uint64_t> all;
  for (const auto& v : got) all.insert(v.begin(), v.end());
  EXPECT_EQ(total.load(), kProducers * kPerProducer);
  for (std::uint64_t i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(all.count(i), 1u) << "value " << i;
  }
}

/// Enqueues until the next admission check fails: live bytes plus the
/// headroom (one node per thread) are above the ceiling.
void fill_to_ceiling(async_bounded& q) {
  auto& b = q.queue();
  const auto headroom = static_cast<std::int64_t>(
      b.max_threads() *
      async_bounded::inner_type::storage_type::max_alloc_bytes);
  std::uint64_t n = 0;
  while (b.live_bytes() + headroom <=
         static_cast<std::int64_t>(b.max_bytes())) {
    ASSERT_TRUE(b.try_enqueue(n++, this_thread_id()));
  }
  ASSERT_GT(n, 0u);
}

/// Starts co_enqueue(v) and requires it to complete without suspending.
bool co_enqueue_now(async_bounded& q, std::uint64_t v) {
  auto t = q.co_enqueue(v);
  t.start();
  EXPECT_TRUE(t.done()) << "co_enqueue suspended";
  return t.done() && t.take();
}

TEST(AsyncQueue, CoEnqueueAppliesTheBoundedPolicy) {
  event_loop loop;  // never run: nothing may be left to resume
  // A full reject queue refuses: co_enqueue returns false at once.
  {
    async_bounded q(2, bounded_config{.max_bytes = 1u << 20,
                                      .policy = full_policy::reject});
    q.set_executor(&loop);
    fill_to_ceiling(q);
    const auto before = q.queue().stats();
    EXPECT_FALSE(co_enqueue_now(q, 0));
    EXPECT_EQ(q.queue().stats().rejected, before.rejected + 1);
    EXPECT_EQ(q.queue().stats().admitted, before.admitted);
  }
  // A full overwrite_oldest queue drops from the head and admits.
  {
    async_bounded q(2, bounded_config{.max_bytes = 1u << 20,
                                      .policy = full_policy::overwrite_oldest});
    q.set_executor(&loop);
    fill_to_ceiling(q);
    const auto before = q.queue().stats();
    EXPECT_TRUE(co_enqueue_now(q, 0));
    EXPECT_GT(q.queue().stats().overwritten, before.overwritten);
    EXPECT_EQ(q.queue().stats().admitted, before.admitted + 1);
  }
}

TEST(AsyncQueue, CoEnqueueReturnsFalseOnAClosedQueue) {
  // Closed refuses before any policy runs: nothing is inserted or counted.
  {
    async_wf q(4);
    q.enqueue(1);
    q.close();
    auto t = q.co_enqueue(2);
    t.start();
    ASSERT_TRUE(t.done());
    EXPECT_FALSE(t.take());
    EXPECT_EQ(q.dequeue(), std::optional<std::uint64_t>(1));
    EXPECT_EQ(q.dequeue(), std::nullopt);
  }
  {
    async_bounded q(2, bounded_config{.max_bytes = 1u << 20});
    q.close();
    EXPECT_FALSE(co_enqueue_now(q, 5));
    EXPECT_EQ(q.queue().stats().admitted, 0u);
    EXPECT_EQ(q.queue().stats().rejected, 0u);
    EXPECT_EQ(q.dequeue(), std::nullopt);
  }
}

TEST(AsyncQueue, CoEnqueueWithoutTryEnqueueAdmitsAndWakesAConsumer) {
  async_wf q(4);  // no executor: the notify resumes the consumer inline
  auto consumer = q.co_dequeue();
  consumer.start();
  ASSERT_FALSE(consumer.done());
  auto producer = q.co_enqueue(42);
  producer.start();
  ASSERT_TRUE(producer.done());
  EXPECT_TRUE(producer.take());
  ASSERT_TRUE(consumer.done());
  EXPECT_EQ(consumer.take(), std::optional<std::uint64_t>(42));
  EXPECT_EQ(q.hub().stats().notifies, 1u);
}

TEST(AsyncQueue, RefusedCoEnqueueWakesNoConsumer) {
  // Only an admitted element notifies. The consumer parks on the empty
  // queue; the fill goes straight to the inner queue, so no notify wakes it.
  async_bounded q(2, bounded_config{.max_bytes = 1u << 20,
                                    .policy = full_policy::reject});
  auto consumer = q.co_dequeue();
  consumer.start();
  ASSERT_FALSE(consumer.done());
  fill_to_ceiling(q);
  const auto notifies = q.hub().stats().notifies;
  EXPECT_FALSE(co_enqueue_now(q, 0));
  EXPECT_EQ(q.hub().stats().notifies, notifies);
  EXPECT_FALSE(consumer.done());
  q.close();  // releases the consumer, which drains the head
  ASSERT_TRUE(consumer.done());
  EXPECT_EQ(consumer.take(), std::optional<std::uint64_t>(0));
}

task<void> co_dequeue_for_into(async_wf& q, std::chrono::milliseconds d,
                               std::optional<std::uint64_t>& out) {
  out = co_await q.co_dequeue_for(d);
}

task<void> co_dequeue_for_timed(
    async_wf& q, std::chrono::milliseconds d,
    std::optional<std::uint64_t>& out,
    std::chrono::steady_clock::time_point& served_at) {
  out = co_await q.co_dequeue_for(d);
  served_at = std::chrono::steady_clock::now();
}

TEST(AsyncQueue, CoDequeueForTimesOutEmptyHanded) {
  async_wf q(4);
  event_loop loop;
  q.set_executor(&loop);
  std::optional<std::uint64_t> out = std::optional<std::uint64_t>(1234);
  // t0 BEFORE spawn: spawn runs the coroutine inline up to its first
  // suspension, which stamps the deadline — under a sanitizer that setup
  // can take several ms, and t0-after-spawn would overstate the wait.
  const auto t0 = std::chrono::steady_clock::now();
  loop.spawn(co_dequeue_for_into(q, 20ms, out));
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(out, std::nullopt);
  EXPECT_GE(dt, 19ms);
  EXPECT_FALSE(q.hub().maybe_waiters());  // timed-out waiter fully delisted
}

TEST(AsyncQueue, CoDequeueForReturnsEarlyWhenServed) {
  async_wf q(4);
  event_loop loop;
  q.set_executor(&loop);
  std::optional<std::uint64_t> out;
  auto served_at = std::chrono::steady_clock::time_point::max();
  // NOTE: run() itself drains the (now-useless) deadline timer before it
  // returns — the TASK completes early, the loop exits at the deadline.
  loop.spawn(co_dequeue_for_timed(q, 2s, out, served_at));
  std::thread producer([&] {
    std::this_thread::sleep_for(10ms);
    q.enqueue(55);
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  producer.join();
  EXPECT_EQ(out, std::optional<std::uint64_t>(55));
  EXPECT_LT(served_at - t0, 1s);  // served on arrival, not at the deadline
}

task<void> select_all(std::vector<async_wf*> qs,
                      std::vector<std::pair<std::uint64_t, std::size_t>>& out) {
  for (;;) {
    auto r = co_await co_select<wf_queue_opt<std::uint64_t>>(qs);
    if (!r.value) {
      EXPECT_FALSE(r.open);  // only terminates when every queue closed
      co_return;
    }
    out.emplace_back(*r.value, r.index);
  }
}

TEST(AsyncQueue, SelectMultiplexesTwoQueuesAndReportsSource) {
  async_wf q0(4), q1(4);
  event_loop loop;
  q0.set_executor(&loop);
  q1.set_executor(&loop);
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  loop.spawn(select_all({&q0, &q1}, out));
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < 50; ++i) {
      (i % 2 ? q1 : q0).enqueue(i);
    }
    q0.close();
    q1.close();
  });
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  producer.join();
  ASSERT_EQ(out.size(), 50u);
  std::multiset<std::uint64_t> seen;
  for (auto [v, idx] : out) {
    seen.insert(v);
    EXPECT_EQ(idx, v % 2) << "value " << v << " served by wrong shard";
  }
  EXPECT_EQ(seen.size(), 50u);
}

// A queue whose first dequeue misses and whose later ones find an item, so
// a wait's fast path misses and its re-check hits.
struct second_look_queue {
  using value_type = std::uint64_t;
  void enqueue(value_type, std::uint32_t) {}
  std::optional<value_type> dequeue(std::uint32_t) {
    if (looks++ == 0) return std::nullopt;
    return value_type{7};
  }
  int looks = 0;
};

TEST(AsyncQueue, SelectReCheckHitIsNotAPark) {
  async_mpmc<second_look_queue> q0, q1;
  auto t = co_select<second_look_queue>({&q0, &q1});
  t.start();
  ASSERT_TRUE(t.done());  // the re-check hit: never suspended
  const auto r = t.take();
  EXPECT_EQ(r.value, std::optional<std::uint64_t>(7));
  EXPECT_EQ(r.index, 0u);
  for (auto* q : {&q0, &q1}) {
    EXPECT_EQ(q->hub().stats().parks, 0u);
    EXPECT_EQ(q->hub().stats().resumes, 0u);
    EXPECT_FALSE(q->hub().maybe_waiters());
  }
}

task<void> drain_any(async_sharded<wf_queue_opt<std::uint64_t>>& s,
                     std::multiset<std::uint64_t>& out) {
  for (;;) {
    auto r = co_await s.co_dequeue_any();
    if (!r.value) co_return;
    EXPECT_LT(r.index, s.shard_count());
    out.insert(*r.value);
  }
}

TEST(AsyncQueue, ShardedCoDequeueAnyDrainsAllShards) {
  constexpr std::uint64_t kItems = 600;
  async_sharded<wf_queue_opt<std::uint64_t>> shards(3, 8);
  event_loop loop;
  shards.set_executor(&loop);
  std::multiset<std::uint64_t> out;
  loop.spawn(drain_any(shards, out));
  std::thread producer([&] {
    // Spread across shards explicitly (round robin over shard index).
    for (std::uint64_t i = 0; i < kItems; ++i) {
      shards.shard(static_cast<std::uint32_t>(i % 3)).enqueue(i);
    }
    shards.close_all();
  });
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  producer.join();
  EXPECT_EQ(out.size(), kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) EXPECT_EQ(out.count(i), 1u);
}

// With items in both shards, two consecutive co_dequeue_any calls serve
// both: a scan starts after the shard that served last, so a shard with a
// backlog does not starve the others.
TEST(AsyncQueue, ShardedCoDequeueAnyServesEveryShardInTurn) {
  async_sharded<wf_queue_opt<std::uint64_t>> shards(2, 8);
  for (std::uint32_t i = 0; i < 4; ++i) shards.shard(i % 2).enqueue(i);
  std::set<std::size_t> served;
  for (int k = 0; k < 2; ++k) {
    auto t = shards.co_dequeue_any();
    t.start();
    ASSERT_TRUE(t.done());  // an item was present: never suspended
    const auto r = t.take();
    ASSERT_TRUE(r.value.has_value());
    EXPECT_EQ(*r.value % 2, r.index);
    served.insert(r.index);
  }
  EXPECT_EQ(served, (std::set<std::size_t>{0, 1}));
}

// Mixed mode: plain producer THREADS, coroutine consumers, one history.
// The front-end must preserve the inner queue's linearizability — recorded
// invocation/response windows around enqueue() and co_dequeue must admit a
// legal sequential FIFO witness.
task<void> recorded_consume(async_wf& q, history_recorder& h,
                            std::uint32_t log_tid) {
  for (;;) {
    // All consumer coroutines run on the loop thread, so one log bucket is
    // written single-threadedly even across suspensions.
    auto sc = h.begin(log_tid, op_kind::deq);
    auto v = co_await q.co_dequeue();
    if (v) {
      sc.set_value(*v);
      sc.commit();
    } else {
      sc.set_empty();
      sc.commit();
      co_return;
    }
  }
}

TEST(AsyncQueue, MixedThreadAndCoroutineHistoryIsLinearizable) {
  constexpr std::uint32_t kProducers = 2;
  constexpr std::uint64_t kPerProducer = 4;  // checker wants tiny histories
  async_wf q(8);
  event_loop loop;
  q.set_executor(&loop);
  history_recorder h(8);

  // Consumers share the loop thread; give each its own log bucket anyway.
  loop.spawn(recorded_consume(q, h, 6));
  loop.spawn(recorded_consume(q, h, 7));

  std::atomic<std::uint32_t> remaining{kProducers};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::uint32_t tid = this_thread_id();
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = p * kPerProducer + i;
        auto sc = h.begin(p, op_kind::enq, v);
        q.enqueue(v, tid);
        sc.commit();
      }
      if (remaining.fetch_sub(1) == 1) q.close();
    });
  }
  EXPECT_TRUE(kpq::testing::run_bounded(loop));
  for (auto& t : producers) t.join();

  auto events = h.collect();
  // 8 enqueues + 8 successful dequeues + 2 empty completions.
  EXPECT_EQ(events.size(), 2 * kProducers * kPerProducer + 2);
  EXPECT_TRUE(lin_checker::is_linearizable(std::move(events)));
}

}  // namespace
}  // namespace kpq::async
