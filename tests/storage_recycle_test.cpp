// heap_node_storage recycles reclaimed nodes (storage/recycle_list.hpp):
// the reclaimer's callback keeps a node on the retiring thread's capped
// free list and that thread's next alloc() reuses it before calling `new`.
//
// This binary replaces the global operator new to count node-sized heap
// allocations: on the opt queue every operation also allocates descriptors
// (which are not recycled), so mem_counters::total_allocs() alone cannot
// isolate the nodes there.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/mem_tracker.hpp"
#include "support/whitebox.hpp"

namespace {

// Single-threaded tests: plain counters suffice.
bool g_counting = false;
std::size_t g_counted_size = 0;
std::uint64_t g_counted_news = 0;

}  // namespace

// The replacements pair malloc with free (sanitizers check that pairing).
// GCC cannot see that they replace the global pair and flags free() on a
// pointer from operator new wherever both are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_counting && n == g_counted_size) ++g_counted_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace kpq {
namespace {

using testing::whitebox;

/// Heap allocations of exactly `bytes` made while `fn` runs.
template <typename Fn>
std::uint64_t news_of_size(std::size_t bytes, Fn&& fn) {
  g_counted_size = bytes;
  g_counted_news = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_counted_news;
}

constexpr int kPairs = 100'000;

template <typename Q>
class NodeRecycling : public ::testing::Test {};

using Queues =
    ::testing::Types<wf_queue_opt<std::uint64_t>, wf_queue_fps<std::uint64_t>>;
TYPED_TEST_SUITE(NodeRecycling, Queues);

TYPED_TEST(NodeRecycling, PairsReuseReclaimedNodes) {
  using Q = TypeParam;
  mem_counters mc;
  {
    Q q(1, &mc);
    // What a thread can hold outside its free list before reuse starts:
    // the free list itself, plus one scan threshold of retirements.
    const std::uint64_t bound = Q::storage_type::cache_cap +
                                q.reclaimer().scan_threshold();
    const std::uint64_t node_news =
        news_of_size(sizeof(typename Q::node_type), [&] {
          for (int i = 0; i < kPairs; ++i) {
            q.enqueue(static_cast<std::uint64_t>(i), 0);
            ASSERT_EQ(q.dequeue(0), std::optional<std::uint64_t>(i));
          }
        });
    EXPECT_LT(node_news, bound) << "nodes are not being recycled";
    if constexpr (Q::has_fast_path) {
      // Uncontended fps ops never announce, so the sink sees only nodes
      // plus the construction allocations (sentinel and one descriptor).
      EXPECT_LT(mc.total_allocs(), bound + 2);
    }
    // Cached nodes stay live in the accounting.
    EXPECT_GE(mc.live_objects(),
              static_cast<std::int64_t>(1 + q.storage().cached(0)));
  }
  EXPECT_EQ(mc.live_bytes(), 0);
  EXPECT_EQ(mc.live_objects(), 0);
}

TEST(NodeRecyclingFps, SlowPathAdoptsRecycledNodesIntact) {
  mem_counters mc;
  {
    wf_queue_fps<std::uint64_t> q(1, &mc);
    // Fast-path pairs fill the free list with fast nodes (enq_tid no_tid)
    // and fast-claimed sentinels (deq_tid fast_claim_base).
    std::set<const void*> seen{whitebox::head(q)};
    for (std::uint64_t i = 0; i < 1000; ++i) {
      q.enqueue(i, 0);
      seen.insert(whitebox::tail(q));
      ASSERT_EQ(q.dequeue(0), std::optional<std::uint64_t>(i));
    }
    ASSERT_GT(q.storage().cached(0), 0u);

    // Slow path only: every operation announces, so each enqueue adopts a
    // node from the free list.
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const std::size_t cached = q.storage().cached(0);
      const std::uint64_t v = 0xC0FFEE00ULL + i;
      whitebox::announce_enq(q, 0, v);
      auto* node = whitebox::tail(q);
      // alloc runs before the announce, whose retirements may scan and
      // refill the list: a non-empty list hands out a node seen before.
      if (cached > 0) {
        EXPECT_TRUE(seen.count(node)) << "expected a recycled node";
      }
      seen.insert(node);
      EXPECT_EQ(node->enq_tid, 0) << "adoption must reset enq_tid";
      EXPECT_EQ(node->deq_tid.load(), no_tid);
      EXPECT_EQ(node->value, v);
      ASSERT_EQ(whitebox::announce_deq(q, 0), std::optional<std::uint64_t>(v));
    }

    // Back to the fast path over slow-path nodes, with a backlog so
    // recycled nodes sit in the middle of the list.
    for (std::uint64_t i = 0; i < 500; ++i) q.enqueue(i, 0);
    for (std::uint64_t i = 0; i < 500; ++i) {
      ASSERT_EQ(q.dequeue(0), std::optional<std::uint64_t>(i));
    }
    EXPECT_EQ(q.dequeue(0), std::nullopt);
  }
  EXPECT_EQ(mc.live_bytes(), 0);
}

}  // namespace
}  // namespace kpq
