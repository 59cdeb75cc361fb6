// Sequential-semantics tests for every variant of the KP wait-free queue.
//
// Typed over the four paper variants (base, opt1, opt2, opt1+2), the FPS
// fast path, both reclaimers (hazard pointers also with a scan on every
// retirement, so short runs recycle nodes), the stats option and a storage
// that frees reclaimed nodes instead of recycling them
// (testing::freeing_storage), because the single-threaded contract must be
// identical for all of them.
// Concurrency is exercised separately in core_stress_test.cpp;
// deterministic interleavings in core_scenario_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "reclaim/leaky.hpp"
#include "support/baton.hpp"
#include "support/fault_storage.hpp"

namespace kpq {
namespace {

using testing::eager_hp_domain;

template <typename Q>
class WfQueueSequentialTest : public ::testing::Test {};

using QueueTypes = ::testing::Types<
    wf_queue_base<std::uint64_t>, wf_queue_opt1<std::uint64_t>,
    wf_queue_opt2<std::uint64_t>, wf_queue_opt<std::uint64_t>,
    wf_queue_base<std::uint64_t, eager_hp_domain>,
    wf_queue_opt<std::uint64_t, eager_hp_domain>,
    wf_queue_base<std::uint64_t, leaky_domain>,
    wf_queue_fps<std::uint64_t>,
    wf_queue_opt1<std::uint64_t, eager_hp_domain>,
    wf_queue_opt2<std::uint64_t, eager_hp_domain>,
    wf_queue_opt<std::uint64_t, leaky_domain>,
    wf_queue_fps<std::uint64_t, eager_hp_domain>,
    wf_queue<std::uint64_t, help_one, fetch_add_phase, hp_domain,
             wf_options_stats>,
    testing::freeing_base<std::uint64_t>, testing::freeing_opt<std::uint64_t>,
    testing::freeing_fps<std::uint64_t>>;
TYPED_TEST_SUITE(WfQueueSequentialTest, QueueTypes);

TYPED_TEST(WfQueueSequentialTest, StartsEmpty) {
  TypeParam q(4);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_TRUE(q.empty_hint(0));
  EXPECT_EQ(q.unsafe_size(), 0u);
}

TYPED_TEST(WfQueueSequentialTest, SingleElementRoundTrip) {
  TypeParam q(4);
  q.enqueue(42u, 0);
  EXPECT_FALSE(q.empty_hint(0));
  EXPECT_EQ(q.unsafe_size(), 1u);
  auto v = q.dequeue(0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42u);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
}

TYPED_TEST(WfQueueSequentialTest, FifoOrderPreserved) {
  TypeParam q(2);
  for (std::uint64_t i = 0; i < 100; ++i) q.enqueue(i, 0);
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TYPED_TEST(WfQueueSequentialTest, InterleavedEnqDeq) {
  TypeParam q(1);
  std::uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 50; ++round) {
    q.enqueue(next_in++, 0);
    q.enqueue(next_in++, 0);
    auto v = q.dequeue(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_out++);
  }
  EXPECT_EQ(q.unsafe_size(), next_in - next_out);
  while (next_out < next_in) {
    auto v = q.dequeue(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_out++);
  }
}

TYPED_TEST(WfQueueSequentialTest, EmptyAfterDrainRepeatedly) {
  TypeParam q(2);
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(q.dequeue(0), std::nullopt);
    q.enqueue(static_cast<std::uint64_t>(round), 1);
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, static_cast<std::uint64_t>(round));
    EXPECT_EQ(q.dequeue(0), std::nullopt);
  }
}

TYPED_TEST(WfQueueSequentialTest, ManyElementsSurviveDestruction) {
  // Destroying a non-empty queue must release every node (checked by the
  // allocation-counting test below and by ASan in sanitizer runs).
  TypeParam q(1);
  for (std::uint64_t i = 0; i < 1000; ++i) q.enqueue(i, 0);
  EXPECT_EQ(q.unsafe_size(), 1000u);
}

TYPED_TEST(WfQueueSequentialTest, DifferentTidsSequential) {
  TypeParam q(8);
  for (std::uint32_t t = 0; t < 8; ++t) {
    q.enqueue(t, t);
  }
  for (std::uint32_t t = 0; t < 8; ++t) {
    auto v = q.dequeue(7 - t);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, t);
  }
}

TEST(WfQueueMemory, LiveBytesBalanceExactly) {
  mem_counters mc;
  {
    wf_queue_base<std::uint64_t> q(4, &mc);
    for (std::uint64_t i = 0; i < 200; ++i) q.enqueue(i, 0);
    const auto peak = mc.live_bytes();
    EXPECT_GE(peak,
              static_cast<std::int64_t>(200 * sizeof(wf_node<std::uint64_t>)));
    for (std::uint64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(q.dequeue(1).has_value());
    }
    // All 200 nodes dequeued; live node memory is the sentinel plus nodes
    // still sitting in the reclaimer's retired lists.
    EXPECT_GE(mc.live_objects(), 1);
  }
  // Counters were attached at construction: the balance sheet must close.
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

TEST(WfQueueMemory, ReclaimerActuallyFrees) {
  wf_queue_base<std::uint64_t> q(2);
  const auto threshold = q.reclaimer().scan_threshold();
  for (std::uint64_t i = 0; i < threshold * 4; ++i) {
    q.enqueue(i, 0);
    ASSERT_TRUE(q.dequeue(0).has_value());
  }
  EXPECT_GT(q.reclaimer().freed_count(), 0u)
      << "hazard-pointer domain never reclaimed anything";
}

TEST(WfQueueSequential, OneThreadReusesItsRecord) {
  // One thread alternating operations republishes its one record from
  // done each time; every round trip returns the value it enqueued.
  wf_queue_base<std::uint64_t> q(1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.enqueue(i, 0);
    ASSERT_EQ(q.dequeue(0), std::optional<std::uint64_t>(i));
  }
  EXPECT_EQ(q.dequeue(0), std::nullopt);
}

TEST(WfQueueTypes, WorksWithStrings) {
  wf_queue_base<std::string> q(2);
  q.enqueue("hello", 0);
  q.enqueue("world", 1);
  EXPECT_EQ(q.dequeue(0), std::optional<std::string>("hello"));
  EXPECT_EQ(q.dequeue(1), std::optional<std::string>("world"));
  EXPECT_EQ(q.dequeue(0), std::nullopt);
}

TEST(WfQueueTypes, WorksWithRegistryTid) {
  wf_queue_base<std::uint64_t> q(max_registered_threads);
  q.enqueue(7u);
  EXPECT_EQ(q.dequeue(), std::optional<std::uint64_t>(7u));
}

}  // namespace
}  // namespace kpq
