// Tests for the property the wait-free step bound rests on: every
// operation draws a fresh phase of its own (paper lines 62 and 99), so a
// helper bounded by its own phase completes at most one operation per peer
// and its help loop ends at the peer's next announce.
//
// Typed over the four paper variants, so both phase policies
// (scan_max_phase and fetch_add_phase) and both help policies are covered.
// Runs of per-item operations are also checked against the statistics, a
// baseline queue, and the whole-run FIFO checker under real threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "core/queue_concepts.hpp"
#include "core/wf_queue.hpp"
#include "harness/workload.hpp"
#include "support/whitebox.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

using wb = testing::whitebox;

template <typename Q>
class WfQueuePhaseDraw : public ::testing::Test {};

using PaperVariants =
    ::testing::Types<wf_queue_base<std::uint64_t>, wf_queue_opt1<std::uint64_t>,
                     wf_queue_opt2<std::uint64_t>, wf_queue_opt<std::uint64_t>>;
TYPED_TEST_SUITE(WfQueuePhaseDraw, PaperVariants);

TYPED_TEST(WfQueuePhaseDraw, EnqueueRunPreservesOrderAndDrawsAPhasePerItem) {
  TypeParam q(2);
  const std::vector<std::uint64_t> in{5, 6, 7, 8, 9};
  for (std::uint64_t v : in) {
    const std::int64_t before = wb::max_phase(q, 0);
    q.enqueue(v, 0);
    // One operation, one phase: the largest phase on any record moves up
    // by exactly one, and it is the enqueuer's.
    EXPECT_EQ(wb::max_phase(q, 0), before + 1) << "item " << v;
    EXPECT_EQ(wb::state(q, 0).phase, before + 1) << "item " << v;
  }
  for (std::uint64_t v : in) {
    EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(v));
  }
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TYPED_TEST(WfQueuePhaseDraw, DequeueRunStopsAtEmptyAndDrawsAPhasePerCall) {
  TypeParam q(1);
  for (std::uint64_t i = 0; i < 4; ++i) q.enqueue(i, 0);
  std::vector<std::uint64_t> out;
  for (int call = 0; call < 6; ++call) {
    const std::int64_t before = wb::max_phase(q, 0);
    const std::optional<std::uint64_t> v = q.dequeue(0);
    EXPECT_EQ(wb::state(q, 0).phase, before + 1) << "call " << call;
    EXPECT_FALSE(wb::state(q, 0).pending) << "call " << call;
    if (v) out.push_back(*v);
  }
  // Four hits, then two empty calls that leave out untouched.
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(wb::state(q, 0).node, nullptr) << "null node encodes empty";
  EXPECT_EQ(q.unsafe_size(), 0u);
}

TYPED_TEST(WfQueuePhaseDraw, HelpEnqEndsAtThePeersNextOperation) {
  TypeParam q(2);
  // Peer 1 announces enqueue A and stalls; helper 0 announces its own
  // enqueue after it, so A lies inside the helper's bound.
  const std::int64_t pa = wb::next_phase(q, 1);
  wb::publish(q, 1, pa, true, true, wb::make_node(q, 10, 1, 1));
  const std::int64_t ph = wb::next_phase(q, 0);
  wb::publish(q, 0, ph, true, true, wb::make_node(q, 20, 0, 0));
  ASSERT_LT(pa, ph);
  wb::help_enq(q, 1, ph, /*helper=*/0);
  EXPECT_FALSE(wb::state(q, 1).pending);
  EXPECT_EQ(q.unsafe_size(), 1u);

  // The peer's next operation draws a fresh phase, above the helper's
  // bound, so the helper's loop for this peer ends: B stays pending and
  // unlinked.
  const std::int64_t pb = wb::next_phase(q, 1);
  EXPECT_GT(pb, ph);
  auto* nb = wb::make_node(q, 11, 1, 1);
  wb::publish(q, 1, pb, true, true, nb);
  wb::help_enq(q, 1, ph, /*helper=*/0);
  EXPECT_TRUE(wb::state(q, 1).pending);
  EXPECT_EQ(wb::state(q, 1).node, nb);
  EXPECT_EQ(q.unsafe_size(), 1u);

  // The helper goes on to its own operation; a later bound covers B.
  wb::help_enq(q, 0, ph, /*helper=*/0);
  EXPECT_FALSE(wb::state(q, 0).pending);
  EXPECT_TRUE(wb::state(q, 1).pending);
  wb::help_enq(q, 1, pb, /*helper=*/0);
  EXPECT_FALSE(wb::state(q, 1).pending);
  EXPECT_EQ(wb::tail(q), nb);
  for (std::uint64_t v : {10u, 20u, 11u}) {
    EXPECT_EQ(q.dequeue(0), std::optional<std::uint64_t>(v));
  }
  EXPECT_EQ(q.dequeue(0), std::nullopt);
}

TYPED_TEST(WfQueuePhaseDraw, HelpDeqEndsAtThePeersNextOperation) {
  TypeParam q(2);
  for (std::uint64_t v : {100u, 200u, 300u}) q.enqueue(v, 0);
  const std::int64_t pa = wb::next_phase(q, 1);
  wb::publish(q, 1, pa, true, false, nullptr);
  const std::int64_t ph = wb::next_phase(q, 0);
  wb::publish(q, 0, ph, true, false, nullptr);
  ASSERT_LT(pa, ph);
  wb::help_deq(q, 1, ph, /*helper=*/0);
  EXPECT_FALSE(wb::state(q, 1).pending);
  EXPECT_EQ(wb::state(q, 1).node->value, 100u);
  EXPECT_EQ(q.unsafe_size(), 2u);

  const std::int64_t pb = wb::next_phase(q, 1);
  EXPECT_GT(pb, ph);
  wb::publish(q, 1, pb, true, false, nullptr);
  wb::help_deq(q, 1, ph, /*helper=*/0);
  EXPECT_TRUE(wb::state(q, 1).pending);
  EXPECT_EQ(q.unsafe_size(), 2u);

  wb::help_deq(q, 0, ph, /*helper=*/0);
  EXPECT_FALSE(wb::state(q, 0).pending);
  EXPECT_EQ(wb::state(q, 0).node->value, 200u);
  EXPECT_TRUE(wb::state(q, 1).pending);
  wb::help_deq(q, 1, pb, /*helper=*/0);
  EXPECT_FALSE(wb::state(q, 1).pending);
  EXPECT_EQ(wb::state(q, 1).node->value, 300u);
  EXPECT_EQ(q.unsafe_size(), 0u);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
}

// scan_max_phase draws one above the largest phase on ANY record, so runs
// from different threads interleave into one phase sequence.
TEST(WfQueueRun, ScanMaxPhaseMixesTidsAndKeepsFifo) {
  wf_queue_base<std::uint64_t> q(4);
  std::int64_t last = no_phase;
  for (std::uint64_t v = 0; v <= 4; ++v) {
    const std::uint32_t tid = static_cast<std::uint32_t>(v % 3);
    q.enqueue(v, tid);
    EXPECT_EQ(wb::state(q, tid).phase, last + 1) << "item " << v;
    last = wb::state(q, tid).phase;
  }
  for (std::uint64_t v = 0; v <= 4; ++v) {
    EXPECT_EQ(q.dequeue(3), std::optional<std::uint64_t>(v));
    EXPECT_EQ(wb::state(q, 3).phase, ++last);
  }
}

TEST(WfQueueRun, StatsCountEveryItemOfARun) {
  wf_queue<std::uint64_t, help_one, fetch_add_phase, hp_domain,
           wf_options_stats>
      q(2);
  for (std::uint64_t v = 1; v <= 6; ++v) q.enqueue(v, 0);
  std::uint64_t hits = 0;
  while (q.dequeue(1)) ++hits;  // 6 hits, then an empty stop
  EXPECT_EQ(hits, 6u);
  const wf_counters total = q.aggregate_counters();
  EXPECT_EQ(total.enq_ops, 6u);
  EXPECT_EQ(total.deq_ops, 7u);  // 6 hits + the empty-linearized one
  EXPECT_EQ(total.empty_deqs, 1u);
}

/// One script over any queue: a run of enqueues from tid 0, then dequeues
/// from tid 1 until one reports empty.
template <mpmc_queue Q>
std::vector<std::uint64_t> run_script(Q& q) {
  for (std::uint64_t v : {9u, 8u, 7u}) q.enqueue(v, 0);
  std::vector<std::uint64_t> out;
  while (auto v = q.dequeue(1)) out.push_back(*v);
  return out;
}

TEST(GenericRun, BaselineAndWaitFreeQueueAgreeOnOneScript) {
  ms_queue<std::uint64_t> ms(2);
  wf_queue_opt<std::uint64_t> wf(2);
  const std::vector<std::uint64_t> expect{9, 8, 7};
  EXPECT_EQ(run_script(ms), expect);
  EXPECT_EQ(run_script(wf), expect);
  EXPECT_EQ(ms.dequeue(0), std::nullopt);
  EXPECT_EQ(wf.dequeue(0), std::nullopt);
}

// Concurrent runs on ONE wf_queue: each round a thread enqueues a run of
// 1..8 items, then dequeues as many, one operation per item. Every
// operation is recorded with its own window, and the whole-run checker
// validates FIFO and conservation against the final drain.
TEST(WfQueueRunStress, ConcurrentRunsOfPerItemOpsStayLinearizable) {
  constexpr std::uint32_t kThreads = 6;
  constexpr std::uint64_t kRounds = 400;
  constexpr std::uint64_t kMaxRun = 8;
  wf_queue_opt<std::uint64_t> q(kThreads);
  history_recorder rec(kThreads);
  spin_barrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      fast_rng rng = thread_stream(0xBA7C4, t);
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        const std::uint64_t k = 1 + rng.next() % kMaxRun;
        for (std::uint64_t i = 0; i < k; ++i) {
          const std::uint64_t v = encode_value(t, seq++);
          auto s = rec.begin(t, op_kind::enq, v);
          q.enqueue(v, t);
          s.commit();
        }
        for (std::uint64_t i = 0; i < k; ++i) {
          auto s = rec.begin(t, op_kind::deq);
          if (auto v = q.dequeue(t)) {
            s.set_value(*v);
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
  auto r = fifo_checker::check(rec.collect(), drained);
  ASSERT_TRUE(r.ok) << r.to_string();
}

}  // namespace
}  // namespace kpq
