// help_one's second look on the real queue: a peer's announced operation is
// helped only by the second of two consecutive looks that find it pending
// with the same phase, so a stalled operation is completed within 2n
// operations of any active peer (help_policy.hpp).
//
// As in core_progress_test, a hook freezes the owner right after it
// publishes its operation, so the operation can only complete through
// helping; the stats counters show which of the peer's operations did it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>

#include "core/wf_queue.hpp"
#include "support/hooks.hpp"

namespace kpq {
namespace {

std::atomic<std::int64_t> frozen_tid{-1};
std::atomic<bool> gate_open{true};
std::atomic<bool> is_frozen{false};

struct freezing_hooks : no_hooks {
  static void event(std::uint32_t tid, wf_event e, std::int64_t /*phase*/,
                    std::uint32_t /*aux*/) {
    if (!testing::is_publish(e) ||
        static_cast<std::int64_t>(tid) !=
            frozen_tid.load(std::memory_order_acquire)) {
      return;
    }
    is_frozen.store(true, std::memory_order_release);
    while (!gate_open.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    is_frozen.store(false, std::memory_order_release);
  }
};

// Stats first: the publish is counted before the owner freezes.
struct freezing_stats_options : wf_options {
  using hooks = testing::compose<wf_stats, freezing_hooks>;
};

using queue = wf_queue<std::uint64_t, help_one, fetch_add_phase, hp_domain,
                       freezing_stats_options>;

class HelpOneFrozenPeer : public ::testing::Test {
 protected:
  void SetUp() override {
    is_frozen.store(false, std::memory_order_release);
    gate_open.store(true, std::memory_order_release);
    frozen_tid.store(-1, std::memory_order_release);
  }
  void TearDown() override {
    gate_open.store(true, std::memory_order_release);
    frozen_tid.store(-1, std::memory_order_release);
  }

  static void freeze(std::uint32_t tid) {
    gate_open.store(false, std::memory_order_release);
    frozen_tid.store(tid, std::memory_order_release);
  }
  static void wait_frozen() {
    while (!is_frozen.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  static void thaw() { gate_open.store(true, std::memory_order_release); }
};

TEST_F(HelpOneFrozenPeer, SecondOperationCompletesAFrozenEnqueue) {
  queue q(2);
  freeze(0);
  std::thread frozen([&] { q.enqueue(42, 0); });
  wait_frozen();

  // Thread 1's cursor starts on slot 0. Its first operation only records the
  // frozen enqueue's phase, so its own dequeue finds the queue empty.
  EXPECT_EQ(q.dequeue(1), std::nullopt);
  EXPECT_EQ(q.counters(1).helped_enq_completions, 0u);

  // The second look finds the same phase still pending and completes it
  // before thread 1's own dequeue, which then returns the helped item.
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(42));
  EXPECT_EQ(q.counters(1).helped_enq_completions, 1u);

  thaw();
  frozen.join();
  EXPECT_EQ(q.unsafe_size(), 0u);
}

TEST_F(HelpOneFrozenPeer, FrozenDequeueIsCompletedWithin2NOperations) {
  constexpr std::uint32_t n = 2;
  queue q(n);
  q.enqueue(7, 1);
  q.enqueue(8, 1);

  freeze(0);
  std::optional<std::uint64_t> got;
  std::thread frozen([&] { got = q.dequeue(0); });
  wait_frozen();

  // Thread 1 only enqueues, so the frozen dequeue takes 7 whenever it is
  // helped; the counter shows which operation helped it.
  std::uint32_t helped_by = 0;
  for (std::uint32_t op = 1; op <= 2 * n; ++op) {
    q.enqueue(100 + op, 1);
    if (q.counters(1).helped_deq_completions == 1) {
      helped_by = op;
      break;
    }
  }
  EXPECT_NE(helped_by, 0u) << "not helped within 2n operations";
  EXPECT_NE(helped_by, 1u) << "helped at the first look";

  thaw();
  frozen.join();
  EXPECT_EQ(got, std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(8));
}

}  // namespace
}  // namespace kpq
