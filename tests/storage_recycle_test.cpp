// heap_node_storage recycles reclaimed nodes (storage/recycle_list.hpp):
// the reclaimer's callback keeps a node on the retiring thread's capped
// free list and that thread's next alloc() reuses it before calling `new`.
//
// A full list moves whole into another thread's inbox, which that thread
// takes when its own list runs dry, so retirements on consumer threads feed
// the producers' allocations.
//
// This binary replaces the global operator new to count node-sized heap
// allocations, so the counts isolate nodes from every other allocation a
// run makes. The RecycleLists tests pin the free lists and inboxes
// themselves.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/mem_tracker.hpp"
#include "storage/recycle_list.hpp"
#include "support/whitebox.hpp"

namespace {

// Only single-threaded code counts (a multi-threaded test leaves
// g_counting false throughout): plain counters suffice.
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
      // plus the construction allocations.
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
    // and the sentinels fast dequeues retired.
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

TEST(NodeRecycling, ProducersStopAllocatingOnceConsumersHandBack) {
  // Two threads only enqueue and two only dequeue, so every node retires on
  // a consumer. Handing nothing back, the producers would allocate one node
  // per item. With the consumers' full lists reaching the producers'
  // inboxes, fresh allocations cover what can be in flight (the window) or
  // parked (each thread's list, inbox and retired list), plus the handoffs
  // that miss: a consumer whose list fills while both inboxes are full
  // frees, and a producer whose list and inbox are both empty allocates.
  // On a 4-core x86-64 host that is 1.3k-2.2k allocations for 200k items,
  // 1.6k-2.7k under TSan and 1.3k-3.8k beside four busy threads; the bound
  // is a twentieth of the items. The window stays under a batch: a
  // producer that runs more than its list and inbox hold while the
  // consumers are off the CPU allocates the rest (docs/MEMORY.md §1).
  using Q = wf_queue_fps<std::uint64_t>;
  constexpr std::uint32_t kProducers = 2, kConsumers = 2;
  constexpr std::uint32_t n = kProducers + kConsumers;
  constexpr std::uint64_t kPerProducer = 100'000;
  constexpr std::uint64_t kItems = kProducers * kPerProducer;
  constexpr std::uint64_t kWindow = 64;  // items enqueued, not yet dequeued
  mem_counters mc;
  {
    Q q(n, &mc);
    // The producers count before they enqueue, so the window holds at any
    // moment (up to one in-flight item per producer).
    std::atomic<std::uint64_t> started{0}, consumed{0};
    std::vector<std::thread> threads;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          while (started.load() - consumed.load() >= kWindow) {
            std::this_thread::yield();
          }
          started.fetch_add(1);
          q.enqueue(i, p);
        }
      });
    }
    for (std::uint32_t c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&, tid = kProducers + c] {
        while (consumed.load() < kItems) {
          if (q.dequeue(tid).has_value()) {
            consumed.fetch_add(1);
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(consumed.load(), kItems);
    EXPECT_EQ(q.dequeue(0), std::nullopt);
  }
  EXPECT_LT(mc.total_allocs(), kItems / 20)
      << "producers kept allocating: consumers' nodes are not reaching them";
  EXPECT_EQ(mc.live_bytes(), 0);
}

// ------------------------------------------------------------ recycle_lists

using node_lists = recycle_lists<wf_node<std::uint64_t>>;

TEST(RecycleLists, RecycleReusesTheSameAllocation) {
  node_lists lists(2, /*cap=*/8, nullptr);
  auto* a = lists.make(0, std::uint64_t{1}, std::int32_t{0});
  lists.recycle(0, a);
  EXPECT_EQ(lists.cached(0), 1u);
  auto* b = lists.make(0, std::uint64_t{2}, std::int32_t{1});
  EXPECT_EQ(b, a) << "the list must hand back the recycled allocation";
  EXPECT_EQ(b->value, 2u);
  EXPECT_EQ(b->enq_tid, 1);
  lists.recycle(0, b);
}

TEST(RecycleLists, CacheIsPerThread) {
  node_lists lists(2, /*cap=*/8, nullptr);
  auto* a = lists.make(0, std::uint64_t{1}, std::int32_t{0});
  lists.recycle(0, a);
  EXPECT_EQ(lists.cached(0), 1u);
  EXPECT_EQ(lists.cached(1), 0u);
  // Thread 1's make must not take thread 0's kept storage.
  auto* b = lists.make(1, std::uint64_t{2}, std::int32_t{1});
  EXPECT_NE(b, a);
  EXPECT_EQ(lists.cached(0), 1u);
  lists.recycle(1, b);
}

TEST(RecycleLists, CapBoundsTheCache) {
  node_lists lists(1, /*cap=*/2, nullptr);
  auto* a = lists.make(0, std::uint64_t{1}, std::int32_t{0});
  auto* b = lists.make(0, std::uint64_t{2}, std::int32_t{0});
  auto* c = lists.make(0, std::uint64_t{3}, std::int32_t{0});
  lists.recycle(0, a);
  lists.recycle(0, b);
  lists.recycle(0, c);  // over cap: deleted
  EXPECT_EQ(lists.cached(0), 2u);
}

/// An accounting sink for a bare node_lists.
class probe : public mem_tracked {
 public:
  explicit probe(mem_counters& mc) : mem_tracked(&mc) {}
};

TEST(RecycleLists, AccountingTracksFreshAllocationsOnly) {
  mem_counters mc;
  probe acct(mc);
  node_lists lists(1, /*cap=*/8, &acct);
  auto* a = lists.make(0, std::uint64_t{1}, std::int32_t{0});
  EXPECT_EQ(mc.live_objects(), 1);
  lists.recycle(0, a);
  EXPECT_EQ(mc.live_objects(), 1) << "kept storage stays live";
  auto* b = lists.make(0, std::uint64_t{2}, std::int32_t{0});
  EXPECT_EQ(mc.live_objects(), 1) << "reuse is not a fresh allocation";
  lists.recycle(0, b);
  lists.purge();
  EXPECT_EQ(mc.live_objects(), 0);
}

TEST(RecycleLists, OverflowMovesTheListToAnotherThread) {
  mem_counters mc;
  probe acct(mc);
  node_lists lists(2, /*cap=*/4, &acct);
  // Thread 1 runs dry once (a fresh allocation), so it wants a batch.
  auto* own = lists.make(1, std::uint64_t{0}, std::int32_t{1});
  std::array<wf_node<std::uint64_t>*, 5> made{};
  for (auto& p : made) p = lists.make(0, std::uint64_t{1}, std::int32_t{0});
  for (auto* p : made) lists.recycle(0, p);
  // The fifth found the list full: the first four went to thread 1's
  // inbox, and the fifth starts thread 0's list.
  EXPECT_EQ(lists.cached(0), 1u);
  EXPECT_EQ(lists.cached(1), 4u);
  EXPECT_EQ(mc.live_objects(), 6) << "handed-on storage stays live";

  const std::int64_t live = mc.live_bytes();
  const std::uint64_t allocs = mc.total_allocs();
  const std::uint64_t fresh = news_of_size(sizeof(*own), [&] {
    for (std::size_t i = 0; i < 4; ++i) {
      auto* p = lists.make(1, std::uint64_t{2}, std::int32_t{1});
      EXPECT_EQ(p, made[i]) << "thread 1 must reuse the batch oldest first";
    }
  });
  EXPECT_EQ(fresh, 0u);
  EXPECT_EQ(mc.total_allocs(), allocs);
  EXPECT_EQ(mc.live_bytes(), live);
  EXPECT_EQ(lists.cached(1), 0u);
  lists.recycle(1, own);
  for (std::size_t i = 0; i < 4; ++i) lists.recycle(1, made[i]);
  lists.purge();
  EXPECT_EQ(mc.live_bytes(), 0);
}

TEST(RecycleLists, FullInboxesFreeTheOverflow) {
  mem_counters mc;
  probe acct(mc);
  node_lists lists(3, /*cap=*/2, &acct);
  // Thread 1 has run dry and wants a batch; thread 2 never allocated, so
  // it is sent nothing.
  lists.recycle(1, lists.make(1, std::uint64_t{0}, std::int32_t{1}));
  std::array<wf_node<std::uint64_t>*, 6> made{};
  for (auto& p : made) p = lists.make(0, std::uint64_t{1}, std::int32_t{0});
  // Two fill the list, the third sends them to thread 1's inbox, the fourth
  // fills the list again; no inbox wants the last two, so they are freed.
  for (auto* p : made) lists.recycle(0, p);
  EXPECT_EQ(lists.cached(0), 2u);
  EXPECT_EQ(lists.cached(1), 1u + 2u);
  EXPECT_EQ(lists.cached(2), 0u);
  EXPECT_EQ(mc.live_objects(), 5);
  lists.purge();
  EXPECT_EQ(mc.live_objects(), 0);
}

TEST(RecycleLists, PurgeFreesInboxBatches) {
  mem_counters mc;
  probe acct(mc);
  {
    node_lists lists(3, /*cap=*/2, &acct);
    // Threads 1 and 2 run dry once and keep that node; thread 0 then fills
    // both their inboxes and its own list.
    const auto fill = [&] {
      for (std::uint32_t t : {1u, 2u}) {
        lists.recycle(t, lists.make(t, std::uint64_t{0}, std::int32_t{0}));
      }
      std::array<wf_node<std::uint64_t>*, 6> made{};
      for (auto& p : made) p = lists.make(0, std::uint64_t{1}, std::int32_t{0});
      for (auto* p : made) lists.recycle(0, p);
    };
    fill();
    EXPECT_EQ(lists.cached(0), 2u);
    EXPECT_EQ(lists.cached(1), 1u + 2u);
    EXPECT_EQ(lists.cached(2), 1u + 2u);
    EXPECT_EQ(mc.live_objects(), 8);
    lists.purge();
    EXPECT_EQ(mc.live_bytes(), 0);
    for (std::uint32_t t = 0; t < 3; ++t) EXPECT_EQ(lists.cached(t), 0u);

    fill();  // and the destructor purges too
    EXPECT_EQ(mc.live_objects(), 8);
  }
  EXPECT_EQ(mc.live_bytes(), 0);
}

}  // namespace
}  // namespace kpq
