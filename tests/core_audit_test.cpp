// Structural-invariant audits (verify/queue_auditor.hpp) interleaved with
// workload phases, plus negative tests proving the auditor detects each
// class of corruption it claims to.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/workload.hpp"
#include "support/whitebox.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/queue_auditor.hpp"

namespace kpq {
namespace {

using wb = testing::whitebox;
using queue = wf_queue_base<std::uint64_t>;

audit_result audit(queue& q) { return audit_quiescent(wb::view(q)); }

TEST(QueueAuditor, FreshQueueIsClean) {
  queue q(4);
  auto r = audit(q);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(QueueAuditor, CleanAfterSequentialWorkload) {
  queue q(4);
  for (std::uint64_t i = 0; i < 50; ++i) q.enqueue(i, 0);
  for (std::uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(q.dequeue(1).has_value());
  auto r = audit(q);
  EXPECT_TRUE(r.ok) << r.to_string();
  EXPECT_EQ(q.unsafe_size(), 30u);
}

TEST(QueueAuditor, CleanBetweenConcurrentPhases) {
  queue q(4);
  for (int phase = 0; phase < 5; ++phase) {
    spin_barrier barrier(4);
    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < 4; ++tid) {
      workers.emplace_back([&, tid] {
        barrier.arrive_and_wait();
        for (std::uint64_t i = 0; i < 300; ++i) {
          q.enqueue(encode_value(tid, static_cast<std::uint64_t>(phase) * 1000 + i), tid);
          (void)q.dequeue(tid);
        }
      });
    }
    for (auto& w : workers) w.join();
    auto r = audit(q);
    ASSERT_TRUE(r.ok) << "after phase " << phase << ":\n" << r.to_string();
  }
}

TEST(QueueAuditor, DetectsPendingRecord) {
  queue q(2);
  wb::publish(q, 1, 5, /*pending=*/true, /*enq=*/false, nullptr);
  auto r = audit(q);
  EXPECT_FALSE(r.ok);
  // Clean up so the destructor's assertion doesn't fire.
  wb::publish(q, 1, 5, false, false, nullptr);
}

TEST(QueueAuditor, DetectsDequeueRecordNamingAQueuedNode) {
  queue q(2);
  q.enqueue(1, 0);
  q.enqueue(2, 0);
  // Corrupt: a completed dequeue whose record names the node holding 2,
  // which is still queued behind the sentinel.
  auto* queued = wb::head(q)->next.load()->next.load();
  ASSERT_NE(queued, nullptr);
  wb::publish(q, 1, 5, /*pending=*/false, /*enq=*/false, queued);
  auto r = audit(q);
  EXPECT_FALSE(r.ok) << "I6 must flag an item both returned and queued";
  // The same record naming the sentinel is what a real dequeue leaves.
  wb::publish(q, 1, 5, false, false, wb::head(q));
  auto r2 = audit(q);
  EXPECT_TRUE(r2.ok) << r2.to_string();
}

TEST(QueueAuditor, DetectsDanglingNode) {
  queue q(2);
  q.enqueue(1, 0);
  // Manually append a node without swinging tail: a half-finished enqueue.
  auto* n = wb::make_node(q, 99, 1);
  auto* last = wb::tail(q);
  queue::node_type* expected = nullptr;
  ASSERT_TRUE(last->next.compare_exchange_strong(expected, n));
  auto r = audit(q);
  EXPECT_FALSE(r.ok);
  // Finish the enqueue properly so destruction is clean: publish a matching
  // pending record and let the finisher run.
  wb::publish(q, 1, wb::max_phase(q, 1) + 1, true, true, n);
  wb::help_finish_enq(q, 0);
  auto r2 = audit(q);
  EXPECT_TRUE(r2.ok) << r2.to_string();
}

TEST(QueueAuditor, DetectsAStandingHeadClaim) {
  queue q(2);
  q.enqueue(1, 0);
  q.enqueue(2, 0);
  // Corrupt: claim the head for thread 1, which announced no dequeue, and
  // leave the claim standing at quiescence.
  ASSERT_TRUE(wb::claim(q, 1));
  auto r = audit(q);
  EXPECT_FALSE(r.ok);
}

TEST(QueueAuditor, DetectsOutOfRangeEnqTid) {
  queue q(2);
  // Append a node claiming an impossible enqueuer id via a real half-insert.
  auto* n = wb::make_node(q, 7, /*etid=*/77);  // max_threads is 2
  auto* last = wb::tail(q);
  queue::node_type* expected = nullptr;
  ASSERT_TRUE(last->next.compare_exchange_strong(expected, n));
  auto r = audit(q);
  EXPECT_FALSE(r.ok) << "out-of-range enq_tid must be flagged";
}

TEST(QueueAuditor, FpsQueueIsCleanWithAnonymousNodesAllowed) {
  wf_queue_fps<std::uint64_t> q(4);
  spin_barrier barrier(4);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < 4; ++tid) {
    workers.emplace_back([&, tid] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < 400; ++i) {
        q.enqueue(encode_value(tid, i), tid);
        if (i % 2 == 0) (void)q.dequeue(tid);
      }
    });
  }
  for (auto& w : workers) w.join();
  auto v = wb::view(q);
  v.allow_anonymous_enqueuers = true;  // fast-path nodes carry enq_tid -1
  auto r = audit_quiescent(v);
  EXPECT_TRUE(r.ok) << r.to_string();
}

}  // namespace
}  // namespace kpq
