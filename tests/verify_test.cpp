// Tests for the verification substrate itself: the checkers must accept
// legal histories and reject each class of illegal ones. A checker that
// never fires is worse than none — these tests are the checkers' checkers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq {
namespace {

// Handy literal-style event builder.
op_event ev(op_kind k, std::uint64_t value, std::uint64_t inv,
            std::uint64_t res, bool ok = true, std::uint32_t tid = 0) {
  return op_event{k, ok, tid, value, inv, res};
}

// ---------------------------------------------------------------- recorder

TEST(HistoryRecorder, StampsAreStrictlyIncreasing) {
  history_recorder rec(1);
  std::uint64_t prev = rec.stamp();
  for (int i = 0; i < 100; ++i) {
    std::uint64_t s = rec.stamp();
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(HistoryRecorder, ScopeRecordsInvocationBeforeResponse) {
  history_recorder rec(2);
  {
    auto s = rec.begin(1, op_kind::enq, 7);
    s.commit();
  }
  auto all = rec.collect();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_LT(all[0].inv, all[0].res);
  EXPECT_EQ(all[0].tid, 1u);
  EXPECT_EQ(all[0].value, 7u);
  EXPECT_EQ(all[0].kind, op_kind::enq);
}

TEST(HistoryRecorder, CollectMergesThreadsAndClearResets) {
  history_recorder rec(3);
  rec.begin(0, op_kind::enq, 1).commit();
  rec.begin(2, op_kind::enq, 2).commit();
  EXPECT_EQ(rec.collect().size(), 2u);
  rec.clear();
  EXPECT_TRUE(rec.collect().empty());
}

// ------------------------------------------------------------ fifo_checker

TEST(FifoChecker, AcceptsSequentialHistory) {
  std::vector<op_event> h = {
      ev(op_kind::enq, 10, 1, 2),
      ev(op_kind::enq, 11, 3, 4),
      ev(op_kind::deq, 10, 5, 6),
      ev(op_kind::deq, 11, 7, 8),
  };
  auto r = fifo_checker::check(h, {});
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(FifoChecker, AcceptsDrainRemainder) {
  std::vector<op_event> h = {
      ev(op_kind::enq, 10, 1, 2),
      ev(op_kind::enq, 11, 3, 4),
      ev(op_kind::deq, 10, 5, 6),
  };
  auto r = fifo_checker::check(h, {11});
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(FifoChecker, RejectsDoubleDequeue) {
  std::vector<op_event> h = {
      ev(op_kind::enq, 10, 1, 2),
      ev(op_kind::deq, 10, 3, 4),
      ev(op_kind::deq, 10, 5, 6),
  };
  EXPECT_FALSE(fifo_checker::check(h, {}).ok);
}

TEST(FifoChecker, RejectsPhantomValue) {
  std::vector<op_event> h = {
      ev(op_kind::enq, 10, 1, 2),
      ev(op_kind::deq, 99, 3, 4),
  };
  EXPECT_FALSE(fifo_checker::check(h, {10}).ok);
}

TEST(FifoChecker, RejectsLostValue) {
  std::vector<op_event> h = {
      ev(op_kind::enq, 10, 1, 2),
      ev(op_kind::enq, 11, 3, 4),
      ev(op_kind::deq, 10, 5, 6),
  };
  // 11 neither dequeued nor drained.
  EXPECT_FALSE(fifo_checker::check(h, {}).ok);
}

TEST(FifoChecker, RejectsFifoInversion) {
  // enq(10) strictly before enq(11), but deq(11) completes strictly before
  // deq(10) begins.
  std::vector<op_event> h = {
      ev(op_kind::enq, 10, 1, 2),
      ev(op_kind::enq, 11, 3, 4),
      ev(op_kind::deq, 11, 5, 6),
      ev(op_kind::deq, 10, 7, 8),
  };
  EXPECT_FALSE(fifo_checker::check(h, {}).ok);
}

TEST(FifoChecker, AcceptsOverlappingEnqueuesInEitherOrder) {
  // enq(10) and enq(11) overlap: both dequeue orders are linearizable.
  std::vector<op_event> h = {
      ev(op_kind::enq, 10, 1, 5),
      ev(op_kind::enq, 11, 2, 6),
      ev(op_kind::deq, 11, 7, 8),
      ev(op_kind::deq, 10, 9, 10),
  };
  auto r = fifo_checker::check(h, {});
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(FifoChecker, RejectsStrandedPredecessor) {
  // 10 strictly precedes 11; 11 was dequeued but 10 stayed in the queue.
  std::vector<op_event> h = {
      ev(op_kind::enq, 10, 1, 2),
      ev(op_kind::enq, 11, 3, 4),
      ev(op_kind::deq, 11, 5, 6),
  };
  EXPECT_FALSE(fifo_checker::check(h, {10}).ok);
}

TEST(FifoChecker, RejectsDishonestEmpty) {
  // 10 is in the queue for the whole window of the empty dequeue.
  std::vector<op_event> h = {
      ev(op_kind::enq, 10, 1, 2),
      ev(op_kind::deq, 0, 3, 4, /*ok=*/false),
      ev(op_kind::deq, 10, 5, 6),
  };
  EXPECT_FALSE(fifo_checker::check(h, {}).ok);
}

TEST(FifoChecker, AcceptsHonestEmptyBeforeEnqueue) {
  std::vector<op_event> h = {
      ev(op_kind::deq, 0, 1, 2, /*ok=*/false),
      ev(op_kind::enq, 10, 3, 4),
      ev(op_kind::deq, 10, 5, 6),
  };
  auto r = fifo_checker::check(h, {});
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(FifoChecker, AcceptsEmptyOverlappingEnqueue) {
  // The empty dequeue overlaps the enqueue: linearize deq first. Legal.
  std::vector<op_event> h = {
      ev(op_kind::deq, 0, 1, 4, /*ok=*/false),
      ev(op_kind::enq, 10, 2, 3),
      ev(op_kind::deq, 10, 5, 6),
  };
  auto r = fifo_checker::check(h, {});
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(FifoChecker, RejectsDequeueThatCompletesBeforeItsEnqueue) {
  // deq -> 7 responds before enq(7) is invoked: 7 was never in the queue
  // during the dequeue. lin_checker agrees.
  std::vector<op_event> h = {
      ev(op_kind::deq, 7, 1, 2),
      ev(op_kind::enq, 7, 3, 4),
  };
  EXPECT_FALSE(fifo_checker::check(h, {}).ok);
  EXPECT_FALSE(lin_checker::is_linearizable(h));
}

TEST(FifoChecker, AcceptsDequeueOverlappingItsEnqueue) {
  // The dequeue is invoked first but overlaps enq(7): linearize the enqueue
  // first. Legal.
  std::vector<op_event> h = {
      ev(op_kind::deq, 7, 1, 4),
      ev(op_kind::enq, 7, 2, 3),
  };
  auto r = fifo_checker::check(h, {});
  EXPECT_TRUE(r.ok) << r.to_string();
  EXPECT_TRUE(lin_checker::is_linearizable(h));
}

// ------------------------------------------------------------- lin_checker

TEST(LinChecker, AcceptsSequential) {
  std::vector<op_event> h = {
      ev(op_kind::enq, 1, 1, 2),
      ev(op_kind::enq, 2, 3, 4),
      ev(op_kind::deq, 1, 5, 6),
      ev(op_kind::deq, 2, 7, 8),
  };
  EXPECT_TRUE(lin_checker::is_linearizable(h));
}

TEST(LinChecker, RejectsWrongOrderSequential) {
  std::vector<op_event> h = {
      ev(op_kind::enq, 1, 1, 2),
      ev(op_kind::enq, 2, 3, 4),
      ev(op_kind::deq, 2, 5, 6),
  };
  EXPECT_FALSE(lin_checker::is_linearizable(h));
}

TEST(LinChecker, AcceptsOverlapResolvedByReordering) {
  // Two overlapping enqueues; dequeues observe the "later-invoked" one
  // first — legal because overlap allows either linearization order.
  std::vector<op_event> h = {
      ev(op_kind::enq, 1, 1, 10),
      ev(op_kind::enq, 2, 2, 9),
      ev(op_kind::deq, 2, 11, 12),
      ev(op_kind::deq, 1, 13, 14),
  };
  EXPECT_TRUE(lin_checker::is_linearizable(h));
}

TEST(LinChecker, RejectsRealTimeViolation) {
  // Dequeue of 2 completes before dequeue of 1 begins, but 1's enqueue
  // strictly precedes 2's: unlinearizable.
  std::vector<op_event> h = {
      ev(op_kind::enq, 1, 1, 2),
      ev(op_kind::enq, 2, 3, 4),
      ev(op_kind::deq, 2, 5, 6),
      ev(op_kind::deq, 1, 7, 8),
  };
  EXPECT_FALSE(lin_checker::is_linearizable(h));
}

TEST(LinChecker, EmptyDequeueLegalOnlyWhenQueueCanBeEmpty) {
  std::vector<op_event> legal = {
      ev(op_kind::deq, 0, 1, 2, /*ok=*/false),
      ev(op_kind::enq, 1, 3, 4),
  };
  EXPECT_TRUE(lin_checker::is_linearizable(legal));

  std::vector<op_event> illegal = {
      ev(op_kind::enq, 1, 1, 2),
      ev(op_kind::deq, 0, 3, 4, /*ok=*/false),
      ev(op_kind::deq, 1, 5, 6),
  };
  EXPECT_FALSE(lin_checker::is_linearizable(illegal));
}

TEST(LinChecker, EmptyDequeueOverlappingEnqueueIsLegal) {
  std::vector<op_event> h = {
      ev(op_kind::enq, 1, 2, 5),
      ev(op_kind::deq, 0, 1, 6, /*ok=*/false),
      ev(op_kind::deq, 1, 7, 8),
  };
  EXPECT_TRUE(lin_checker::is_linearizable(h));
}

TEST(LinChecker, DeepHistoryStillDecides) {
  // 8 enqueues then 8 dequeues, all sequential: trivially linearizable but
  // exercises the memoization.
  std::vector<op_event> h;
  std::uint64_t t = 1;
  for (std::uint64_t v = 0; v < 8; ++v) {
    h.push_back(ev(op_kind::enq, v, t, t + 1));
    t += 2;
  }
  for (std::uint64_t v = 0; v < 8; ++v) {
    h.push_back(ev(op_kind::deq, v, t, t + 1));
    t += 2;
  }
  EXPECT_TRUE(lin_checker::is_linearizable(h));
  // Swap two dequeue values: now illegal.
  std::swap(h[8].value, h[9].value);
  EXPECT_FALSE(lin_checker::is_linearizable(h));
}

// Cross-validation: fifo_checker must accept everything lin_checker accepts
// (it is a set of necessary conditions).
TEST(CheckerAgreement, FifoCheckerIsWeakerThanLinChecker) {
  const std::vector<std::vector<op_event>> histories = {
      {ev(op_kind::enq, 1, 1, 4), ev(op_kind::enq, 2, 2, 3),
       ev(op_kind::deq, 2, 5, 6), ev(op_kind::deq, 1, 7, 8)},
      {ev(op_kind::enq, 1, 1, 2), ev(op_kind::deq, 1, 3, 6),
       ev(op_kind::deq, 0, 4, 5, false)},
      {ev(op_kind::enq, 1, 1, 8), ev(op_kind::enq, 2, 2, 7),
       ev(op_kind::enq, 3, 3, 6), ev(op_kind::deq, 3, 9, 10),
       ev(op_kind::deq, 1, 11, 12), ev(op_kind::deq, 2, 13, 14)},
  };
  for (const auto& h : histories) {
    if (lin_checker::is_linearizable(h)) {
      auto r = fifo_checker::check(h, {});
      EXPECT_TRUE(r.ok) << r.to_string();
    }
  }
}

}  // namespace
}  // namespace kpq
