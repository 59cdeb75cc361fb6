// Tests for the optional per-thread statistics instrumentation
// (wf_options_stats / wf_counters) and the fast-path queue's fps_path_stats.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/workload.hpp"
#include "support/hooks.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq {
namespace {

using stats_queue = wf_queue<std::uint64_t, help_all, fetch_add_phase,
                             hp_domain, wf_options_stats>;

TEST(WfStats, CountsOperationsSequentially) {
  stats_queue q(2);
  for (std::uint64_t i = 0; i < 10; ++i) q.enqueue(i, 0);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.dequeue(1).has_value());
  const auto c0 = q.counters(0);
  const auto c1 = q.counters(1);
  EXPECT_EQ(c0.enq_ops, 10u);
  EXPECT_EQ(c0.deq_ops, 0u);
  EXPECT_EQ(c1.deq_ops, 5u);
  EXPECT_EQ(c1.enq_ops, 0u);
}

TEST(WfStats, EmptyDequeuesAreCounted) {
  stats_queue q(1);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  q.enqueue(1, 0);
  EXPECT_TRUE(q.dequeue(0).has_value());
  EXPECT_EQ(q.counters(0).empty_deqs, 2u);
  EXPECT_EQ(q.counters(0).deq_ops, 3u);
}

TEST(WfStats, NoHelpingWhenSingleThreaded) {
  stats_queue q(4);
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.enqueue(i, 2);
    ASSERT_TRUE(q.dequeue(2).has_value());
  }
  const auto total = q.aggregate_counters();
  EXPECT_EQ(total.helped_enq_completions, 0u);
  EXPECT_EQ(total.helped_deq_completions, 0u);
  EXPECT_EQ(total.link_cas_failures, 0u);
  EXPECT_EQ(total.desc_cas_failures, 0u);
}

TEST(WfStats, AggregateSumsAllThreads) {
  stats_queue q(3);
  q.enqueue(1, 0);
  q.enqueue(2, 1);
  ASSERT_TRUE(q.dequeue(2).has_value());
  const auto total = q.aggregate_counters();
  EXPECT_EQ(total.enq_ops, 2u);
  EXPECT_EQ(total.deq_ops, 1u);
}

// Deterministic helping: freeze a thread right after it announces its
// operation (same hook as core_progress_test) and verify the helper's
// counters record the completion it performed for the frozen peer.
std::atomic<bool> freeze_tid0{false};
std::atomic<bool> frozen_now{false};
std::atomic<bool> release_gate{false};

struct stats_freeze_hooks : no_hooks {
  static void event(std::uint32_t tid, wf_event e, std::int64_t /*phase*/,
                    std::uint32_t /*aux*/) {
    if (!testing::is_publish(e) || tid != 0 ||
        !freeze_tid0.load(std::memory_order_acquire)) {
      return;
    }
    frozen_now.store(true, std::memory_order_release);
    while (!release_gate.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
};
struct stats_freeze_options : wf_options {
  using hooks = testing::compose<wf_stats, stats_freeze_hooks>;
};

TEST(FpsPathStats, SlowRateIsTheSlowShareOfOps) {
  const fps_path_stats hand{
      .fast_enqs = 3, .slow_enqs = 1, .fast_deqs = 2, .slow_deqs = 2};
  EXPECT_EQ(hand.ops(), 8u);
  EXPECT_DOUBLE_EQ(hand.slow_rate(), 0.375);
  EXPECT_EQ(fps_path_stats{}.slow_rate(), 0.0);  // no ops: no NaN

  wf_queue_fps<std::uint64_t> q(1);
  for (std::uint64_t i = 0; i < 10; ++i) {
    q.enqueue(i, 0);
    ASSERT_EQ(q.dequeue(0), std::optional<std::uint64_t>(i));
  }
  const fps_path_stats run = q.aggregate_path_counters();
  EXPECT_EQ(run.ops(), 20u);
  EXPECT_GE(run.slow_rate(), 0.0);
  EXPECT_LE(run.slow_rate(), 1.0);
}

TEST(WfStats, HelperCompletionIsCountedDeterministically) {
  using frozen_stats_queue =
      wf_queue<std::uint64_t, help_all, fetch_add_phase, hp_domain,
               stats_freeze_options>;
  frozen_stats_queue q(2);
  freeze_tid0.store(true);
  frozen_now.store(false);
  release_gate.store(false);

  std::thread frozen([&] { q.enqueue(42, 0); });
  while (!frozen_now.load()) std::this_thread::yield();

  // Thread 1's dequeue must complete thread 0's frozen enqueue first.
  auto v = q.dequeue(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42u);

  release_gate.store(true);
  frozen.join();
  freeze_tid0.store(false);

  const auto c1 = q.counters(1);
  EXPECT_EQ(c1.helped_enq_completions, 1u)
      << "helper's completion CAS for the frozen peer was not counted";
  EXPECT_EQ(q.counters(0).helped_enq_completions, 0u);
}

template <typename Q>
concept has_counters = requires(const Q& q) {
  q.counters(0);
  q.aggregate_counters();
};

TEST(WfStats, CountersOffCostsNothingAndIsSafe) {
  // Default options: the hook holds nothing and the queue has no counters
  // to read, so none can be read by mistake.
  using default_queue = wf_queue_opt<std::uint64_t>;
  static_assert(std::is_empty_v<default_queue::hooks_type>);
  static_assert(!has_counters<default_queue>);
  static_assert(has_counters<stats_queue>);
  default_queue q(2);
  q.enqueue(1, 0);
  EXPECT_EQ(q.dequeue(0), std::optional<std::uint64_t>(1));
}

}  // namespace
}  // namespace kpq
