// Concurrency stress tests for the KP queue: full histories are recorded
// and validated by the FIFO checker (conservation, uniqueness, real-time
// FIFO order, empty honesty); tiny runs are additionally validated by the
// exact brute-force linearizability checker.
//
// The CI host may have a single hardware thread; these tests are sized so
// the whole suite stays fast while still forcing preemption-driven
// interleavings (oversubscription is the adversarial regime for helping).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/workload.hpp"
#include "reclaim/leaky.hpp"
#include "support/baton.hpp"
#include "support/fault_storage.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq {
namespace {

using testing::eager_hp_domain;

enum class pattern { pairs, fifty_fifty, enq_heavy, deq_heavy };

template <typename Q>
check_result stress_run(std::uint32_t threads, std::uint64_t iters,
                        pattern pat, std::uint64_t seed,
                        std::uint64_t prefill = 0) {
  Q q(threads);
  history_recorder rec(threads);

  std::uint64_t prefill_seq = 0;
  for (std::uint64_t i = 0; i < prefill; ++i) {
    const std::uint64_t v = encode_value(threads - 1, 1'000'000 + prefill_seq++);
    auto s = rec.begin(threads - 1, op_kind::enq, v);
    q.enqueue(v, threads - 1);
    s.commit();
  }

  spin_barrier barrier(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      fast_rng rng = thread_stream(seed, tid);
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < iters; ++i) {
        bool do_enq = false;
        switch (pat) {
          case pattern::pairs:
            do_enq = (i % 2) == 0;
            break;
          case pattern::fifty_fifty:
            do_enq = rng.coin();
            break;
          case pattern::enq_heavy:
            do_enq = rng.bernoulli(3, 4);
            break;
          case pattern::deq_heavy:
            do_enq = rng.bernoulli(1, 4);
            break;
        }
        if (do_enq) {
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
  EXPECT_EQ(q.unsafe_size(), 0u);
  return fifo_checker::check(rec.collect(), drained);
}

template <typename Q>
class WfQueueStressTest : public ::testing::Test {};

using StressTypes = ::testing::Types<
    wf_queue_base<std::uint64_t>, wf_queue_opt1<std::uint64_t>,
    wf_queue_opt2<std::uint64_t>, wf_queue_opt<std::uint64_t>,
    wf_queue_base<std::uint64_t, eager_hp_domain>,
    wf_queue_opt<std::uint64_t, eager_hp_domain>,
    wf_queue_base<std::uint64_t, leaky_domain>,
    wf_queue_fps<std::uint64_t>,
    wf_queue_fps<std::uint64_t, eager_hp_domain>,
    wf_queue_opt1<std::uint64_t, eager_hp_domain>,
    wf_queue<std::uint64_t, help_one, fetch_add_phase, hp_domain,
             wf_options_stats>,
    testing::freeing_opt<std::uint64_t>, testing::freeing_fps<std::uint64_t>>;
TYPED_TEST_SUITE(WfQueueStressTest, StressTypes);

TYPED_TEST(WfQueueStressTest, PairsTwoThreads) {
  auto r = stress_run<TypeParam>(2, 2000, pattern::pairs, 0xABCD);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TYPED_TEST(WfQueueStressTest, PairsFourThreads) {
  auto r = stress_run<TypeParam>(4, 1000, pattern::pairs, 0x1234);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TYPED_TEST(WfQueueStressTest, FiftyFiftyFourThreads) {
  auto r = stress_run<TypeParam>(4, 1000, pattern::fifty_fifty, 0x77,
                                 /*prefill=*/100);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TYPED_TEST(WfQueueStressTest, EnqueueHeavyEightThreads) {
  auto r = stress_run<TypeParam>(8, 400, pattern::enq_heavy, 0xDEAD);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TYPED_TEST(WfQueueStressTest, DequeueHeavyDrivesEmptyPath) {
  auto r = stress_run<TypeParam>(4, 800, pattern::deq_heavy, 0xBEEF);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TYPED_TEST(WfQueueStressTest, OversubscribedPairs) {
  // More threads than any sane core count for this CI box: maximum
  // preemption inside operations.
  auto r = stress_run<TypeParam>(12, 200, pattern::pairs, 0xF00D);
  EXPECT_TRUE(r.ok) << r.to_string();
}

// A payload wider than a word, the way an application carries per-item data
// such as an enqueue timestamp. `tag` is a function of `id`, so a copy that
// mixes words of two items, or loses one, shows up at the consumer.
struct tagged {
  std::uint64_t id;
  std::uint64_t tag;
};

std::uint64_t tag_of(std::uint64_t id) {
  return (id * 0x9E3779B97F4A7C15ULL) ^ 0xA5A5A5A5A5A5A5A5ULL;
}

tagged make_tagged(std::uint64_t id) { return tagged{id, tag_of(id)}; }

// Every variant moves the payload through the same places: the node, the
// owner's copy out of the node its record names and, for FPS, the fast-path
// claim. Run each once more with a hazard-pointer scan on every
// retirement, so nodes are recycled mid-run, and over a storage that frees
// them instead, so a read of a reclaimed node is a use-after-free.
template <typename Q>
class WfQueueWidePayloadTest : public ::testing::Test {};

using WidePayloadTypes = ::testing::Types<
    wf_queue_base<tagged>, wf_queue_opt1<tagged>, wf_queue_opt2<tagged>,
    wf_queue_opt<tagged>, wf_queue_fps<tagged>,
    wf_queue_opt<tagged, eager_hp_domain>, testing::freeing_base<tagged>,
    testing::freeing_opt<tagged>, testing::freeing_fps<tagged>>;
TYPED_TEST_SUITE(WfQueueWidePayloadTest, WidePayloadTypes);

TYPED_TEST(WfQueueWidePayloadTest, FifoKeepsEveryWord) {
  TypeParam q(2);
  for (std::uint64_t i = 0; i < 300; ++i) q.enqueue(make_tagged(i), 0);
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->id, i);
    EXPECT_EQ(v->tag, tag_of(i));
  }
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TYPED_TEST(WfQueueWidePayloadTest, ConcurrentTransferKeepsEveryWord) {
  // Pairs on 4 threads: every operation contends, so dequeues are routinely
  // completed by helpers. The ids go through the FIFO checker; the tag must
  // arrive as the enqueuer wrote it.
  constexpr std::uint32_t threads = 4;
  constexpr std::uint64_t iters = 2000;
  TypeParam q(threads);
  history_recorder rec(threads);
  std::atomic<std::uint64_t> torn{0};
  spin_barrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < iters; ++i) {
        if (i % 2 == 0) {
          const std::uint64_t id = encode_value(tid, seq++);
          auto s = rec.begin(tid, op_kind::enq, id);
          q.enqueue(make_tagged(id), tid);
          s.commit();
        } else {
          auto s = rec.begin(tid, op_kind::deq);
          auto r = q.dequeue(tid);
          if (r.has_value()) {
            if (r->tag != tag_of(r->id)) torn.fetch_add(1);
            s.set_value(r->id);
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
  while (auto v = q.dequeue(0)) {
    if (v->tag != tag_of(v->id)) torn.fetch_add(1);
    drained.push_back(v->id);
  }
  EXPECT_EQ(torn.load(), 0u);
  auto r = fifo_checker::check(rec.collect(), drained);
  EXPECT_TRUE(r.ok) << r.to_string();
}

// Exact linearizability on tiny concurrent runs: few ops, many repetitions,
// every history brute-force checked.
template <typename Q>
void tiny_exact_runs(int reps) {
  for (int rep = 0; rep < reps; ++rep) {
    Q q(3);
    history_recorder rec(3);
    spin_barrier barrier(3);
    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < 3; ++tid) {
      workers.emplace_back([&, tid] {
        barrier.arrive_and_wait();
        for (std::uint64_t i = 0; i < 2; ++i) {
          if ((tid + i) % 2 == 0) {
            const std::uint64_t v = encode_value(tid, i);
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
    // Complete the history with sequential dequeues so lin_checker sees a
    // drained queue (it tolerates leftovers, but draining covers the deq
    // path once more).
    for (;;) {
      auto s = rec.begin(0, op_kind::deq);
      auto r = q.dequeue(0);
      if (r.has_value()) {
        s.set_value(*r);
        s.commit();
      } else {
        s.set_empty();
        s.commit();
        break;
      }
    }
    auto h = rec.collect();
    ASSERT_TRUE(lin_checker::is_linearizable(h))
        << "non-linearizable history at repetition " << rep;
  }
}

TEST(WfQueueExactLin, BaseVariant) {
  tiny_exact_runs<wf_queue_base<std::uint64_t>>(150);
}
TEST(WfQueueExactLin, FullyOptimizedVariant) {
  tiny_exact_runs<wf_queue_opt<std::uint64_t>>(150);
}
TEST(WfQueueExactLin, EagerReclaimVariant) {
  tiny_exact_runs<wf_queue_base<std::uint64_t, eager_hp_domain>>(100);
}

// Two queues sharing threads: domains, records and node caches must be
// fully per-instance (no hidden globals).
TEST(WfQueueIsolation, TwoQueuesDoNotInterfere) {
  wf_queue_opt<std::uint64_t> a(4);
  wf_queue_opt<std::uint64_t> b(4);
  spin_barrier barrier(4);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < 4; ++tid) {
    workers.emplace_back([&, tid] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < 500; ++i) {
        a.enqueue(encode_value(tid, 2 * i), tid);
        b.enqueue(encode_value(tid, 2 * i + 1), tid);
        auto va = a.dequeue(tid);
        auto vb = b.dequeue(tid);
        ASSERT_TRUE(va.has_value());
        ASSERT_TRUE(vb.has_value());
        // Values never cross queues: parity identifies the queue.
        ASSERT_EQ(value_seq(*va) % 2, 0u);
        ASSERT_EQ(value_seq(*vb) % 2, 1u);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(a.unsafe_size(), 0u);
  EXPECT_EQ(b.unsafe_size(), 0u);
}

// Memory safety under churn: run enough operations that hazard-pointer
// scans must fire many times, then check the allocation balance sheet.
TEST(WfQueueChurn, AllocationBalanceUnderContention) {
  mem_counters mc;
  {
    wf_queue_opt<std::uint64_t> q(4, &mc);
    spin_barrier barrier(4);
    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < 4; ++tid) {
      workers.emplace_back([&, tid] {
        barrier.arrive_and_wait();
        for (std::uint64_t i = 0; i < 3000; ++i) {
          q.enqueue(encode_value(tid, i), tid);
          q.dequeue(tid);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_GT(q.reclaimer().freed_count(), 0u);
  }
  // Construction-time attachment: the balance sheet must close exactly.
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

}  // namespace
}  // namespace kpq
