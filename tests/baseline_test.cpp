// Tests for the Michael–Scott lock-free baseline, under each reclaimer:
// identical sequential contract, reclamation and memory accounting, plus
// concurrent histories validated by the same FIFO checker used for the
// wait-free queue.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "harness/mem_tracker.hpp"
#include "harness/workload.hpp"
#include "reclaim/leaky.hpp"
#include "support/baton.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

template <typename Q>
class BaselineSequentialTest : public ::testing::Test {};

using BaselineTypes =
    ::testing::Types<ms_queue<std::uint64_t>,
                     ms_queue<std::uint64_t, testing::eager_hp_domain>,
                     ms_queue<std::uint64_t, leaky_domain>>;
TYPED_TEST_SUITE(BaselineSequentialTest, BaselineTypes);

TYPED_TEST(BaselineSequentialTest, StartsEmpty) {
  TypeParam q(4);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_TRUE(q.empty_hint());
}

TYPED_TEST(BaselineSequentialTest, FifoOrderPreserved) {
  TypeParam q(2);
  for (std::uint64_t i = 0; i < 200; ++i) q.enqueue(i, 0);
  EXPECT_EQ(q.unsafe_size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TYPED_TEST(BaselineSequentialTest, AlternatingEnqDeq) {
  TypeParam q(1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.enqueue(i, 0);
    auto v = q.dequeue(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
    EXPECT_EQ(q.dequeue(0), std::nullopt);
  }
}

TYPED_TEST(BaselineSequentialTest, NonEmptyDestruction) {
  TypeParam q(1);
  for (std::uint64_t i = 0; i < 500; ++i) q.enqueue(i, 0);
  // Destructor must release everything (ASan-verified in sanitizer runs).
}

TYPED_TEST(BaselineSequentialTest, EmptyHintTracksContents) {
  TypeParam q(2);
  EXPECT_TRUE(q.empty_hint(1));
  q.enqueue(1, 0);
  EXPECT_FALSE(q.empty_hint(1));
  q.enqueue(2, 1);
  ASSERT_TRUE(q.dequeue(0).has_value());
  EXPECT_FALSE(q.empty_hint(0));
  ASSERT_TRUE(q.dequeue(1).has_value());
  EXPECT_TRUE(q.empty_hint(0));
  EXPECT_TRUE(q.empty_hint(1));
}

TYPED_TEST(BaselineSequentialTest, EveryThreadIdSharesOneFifo) {
  constexpr std::uint32_t kThreads = 4;
  TypeParam q(kThreads);
  // Enqueue round-robin over every tid, dequeue on a rotated tid: each tid
  // has its own reclamation record, the order is still the one global FIFO.
  for (std::uint64_t i = 0; i < 64; ++i) {
    q.enqueue(i, static_cast<std::uint32_t>(i % kThreads));
  }
  for (std::uint64_t i = 0; i < 64; ++i) {
    auto v = q.dequeue(static_cast<std::uint32_t>((i + 1) % kThreads));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
    EXPECT_EQ(q.dequeue(tid), std::nullopt);
  }
}

TYPED_TEST(BaselineSequentialTest, EachSuccessfulDequeueRetiresOneNode) {
  TypeParam q(2);
  for (std::uint64_t i = 0; i < 300; ++i) q.enqueue(i, 0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.dequeue(1).has_value());
  EXPECT_EQ(q.reclaimer().retired_count(), 5u);
  // An empty dequeue swings no head, so it retires nothing.
  while (q.dequeue(1).has_value()) {
  }
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_EQ(q.reclaimer().retired_count(), 300u);
  // Quiescent: every retired node is either freed or still pending.
  EXPECT_EQ(q.reclaimer().freed_count() + q.reclaimer().pending_count(),
            q.reclaimer().retired_count());
}

TYPED_TEST(BaselineSequentialTest, LiveNodesAreQueueContentsPlusPendingRetired) {
  mem_counters mc;
  TypeParam q(2, &mc);
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 150; ++i) q.enqueue(i, 0);
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.dequeue(1).has_value());
    // Sentinel + queued values + retired nodes the reclaimer has not freed.
    const auto expected = static_cast<std::int64_t>(
        1 + q.unsafe_size() + q.reclaimer().pending_count());
    EXPECT_EQ(mc.live_objects(), expected) << "round " << round;
  }
}

TYPED_TEST(BaselineSequentialTest, MemoryCountersReturnToZero) {
  mem_counters mc;
  {
    TypeParam q(3, &mc);
    for (std::uint64_t i = 0; i < 400; ++i) {
      q.enqueue(i, static_cast<std::uint32_t>(i % 3));
    }
    for (int i = 0; i < 250; ++i) ASSERT_TRUE(q.dequeue(i % 3).has_value());
    EXPECT_GT(mc.live_objects(), 0);
  }
  // Queued nodes are freed by the queue, pending retired ones by its
  // reclaimer, whichever reclaimer that is.
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

TYPED_TEST(BaselineSequentialTest, ParallelProducerAndConsumerKeepOrder) {
  constexpr std::uint64_t kItems = 20000;
  TypeParam q(2);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) q.enqueue(i, 0);
    done.store(true);
  });
  std::uint64_t next = 0;
  std::uint64_t out_of_order = 0;
  while (!done.load() || !q.empty_hint(1)) {
    if (auto v = q.dequeue(1)) {
      if (*v != next) ++out_of_order;
      next = *v + 1;
    }
  }
  producer.join();
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(next, kItems);
}

template <typename Q>
check_result baseline_stress(std::uint32_t threads, std::uint64_t iters,
                             std::uint64_t seed) {
  Q q(threads);
  history_recorder rec(threads);
  spin_barrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      fast_rng rng = thread_stream(seed, tid);
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < iters; ++i) {
        if (rng.coin()) {
          const std::uint64_t v = encode_value(tid, seq++);
          auto s = rec.begin(tid, op_kind::enq, v);
          q.enqueue(v, tid);
          s.commit();
        } else {
          auto s = rec.begin(tid, op_kind::deq);
          auto r = q.dequeue(tid);
          if (r.has_value()) {
            s.set_value(*r);
          } else {
            s.set_empty();
          }
          s.commit();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<std::uint64_t> drained;
  while (auto v = q.dequeue(0)) drained.push_back(*v);
  return fifo_checker::check(rec.collect(), drained);
}

TYPED_TEST(BaselineSequentialTest, ConcurrentHistoryIsFifoConsistent) {
  auto r = baseline_stress<TypeParam>(4, 1000, 0xCAFE);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(MsQueueReclamation, NodesAreActuallyFreed) {
  ms_queue<std::uint64_t> q(2);
  const auto threshold = q.reclaimer().scan_threshold();
  for (std::uint64_t i = 0; i < threshold * 4; ++i) {
    q.enqueue(i, 0);
    ASSERT_TRUE(q.dequeue(0).has_value());
  }
  EXPECT_GT(q.reclaimer().freed_count(), 0u);
}

TEST(MsQueueMemory, CountersBalance) {
  mem_counters mc;
  {
    ms_queue<std::uint64_t> q(2, &mc);
    for (std::uint64_t i = 0; i < 300; ++i) q.enqueue(i, 0);
    for (std::uint64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(q.dequeue(1).has_value());
    }
  }
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

}  // namespace
}  // namespace kpq
