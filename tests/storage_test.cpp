// The storage layer: segment geometry, the seal/consume/retire protocol,
// spare-slot recycling, range-aware hazard scanning, exact live-byte
// accounting (including the construction baseline), and the obs export of
// pool occupancy.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "harness/mem_tracker.hpp"
#include "obs/registry.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/leaky.hpp"
#include "storage/bounded_wf_queue.hpp"
#include "storage/segment_storage.hpp"
#include "support/baton.hpp"

namespace kpq {
namespace {

// A standalone accounting anchor playing the container's role for direct
// storage-layer tests.
struct acct_holder : mem_tracked {
  mem_counters mc;
  acct_holder() {
    set_memory_counters(&mc);
    seal_baseline();
  }
};

using seg256 = segment_storage<std::uint64_t, 256>;

// ----------------------------------------------------------- geometry

TEST(SegmentStorage, GeometryAndBumpAllocation) {
  static_assert(seg256::cells_per_segment >= 2);
  static_assert(seg256::max_alloc_bytes == 256);

  acct_holder a;
  hp_domain dom(1, 1);
  seg256 s(1, &a);

  auto* n0 = s.alloc(0, 1, 0, dom);
  auto* n1 = s.alloc(0, 2, 0, dom);
  ASSERT_NE(n0, nullptr);
  // Bump allocation: consecutive cells, same 256-byte-aligned segment.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(n0) & ~std::uintptr_t{255},
            reinterpret_cast<std::uintptr_t>(n1) & ~std::uintptr_t{255});
  EXPECT_EQ(n0->value, 1u);
  EXPECT_EQ(n1->value, 2u);

  const auto st = s.pool_stats();
  EXPECT_EQ(st.segments_allocated, 1u);
  EXPECT_EQ(st.segments_live, 1);
  EXPECT_EQ(st.segment_bytes, 256u);
  EXPECT_EQ(st.cells_per_segment, seg256::cells_per_segment);
  EXPECT_EQ(a.mc.live_bytes(), 256);  // one segment, accounted as a block
}

// A full segment's retirement frees (or parks) it; the next opening reuses
// the spare instead of the heap.
TEST(SegmentStorage, SealConsumeRecycleRoundtrip) {
  acct_holder a;
  hp_domain dom(1, 1);
  seg256 s(1, &a);

  constexpr std::size_t k = seg256::cells_per_segment;
  std::vector<seg256::node_type*> nodes;
  for (std::size_t i = 0; i < k; ++i) {
    nodes.push_back(s.alloc(0, i, 0, dom));
  }
  // Opening the second segment seals the first.
  auto* overflow = s.alloc(0, 99, 0, dom);
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(s.pool_stats().segments_allocated, 2u);

  // Consuming every cell of the sealed segment retires it; with no hazard
  // announcement the eager scan reclaims immediately — into the spare slot.
  for (auto* n : nodes) s.retire(0, n, dom);
  {
    const auto st = s.pool_stats();
    EXPECT_EQ(st.segments_retired, 0);  // reclaimed, not pending
    EXPECT_EQ(st.segments_spare, 1);
    EXPECT_EQ(st.segments_live, 2);  // spare still owns its memory
  }

  // Fill the second segment; its successor must come from the spare slot.
  std::vector<seg256::node_type*> second{overflow};
  for (std::size_t i = 1; i < k; ++i) second.push_back(s.alloc(0, i, 0, dom));
  s.alloc(0, 100, 0, dom);
  {
    const auto st = s.pool_stats();
    EXPECT_EQ(st.segments_allocated, 2u);  // no third heap allocation
    EXPECT_EQ(st.segments_recycled, 1u);
    EXPECT_EQ(st.segments_spare, 0);
  }
  // Teardown, as a container destructor does: releasing every cell of the
  // sealed second segment frees it (the active third one goes with `s`).
  for (auto* n : second) s.release(n);
}

// A hazard announcement anywhere INSIDE a retired segment keeps the whole
// segment alive; clearing it lets the next scan reclaim.
TEST(SegmentStorage, AnnouncedCellPinsWholeSegment) {
  acct_holder a;
  hp_domain dom(2, 1);
  seg256 s(2, &a);

  constexpr std::size_t k = seg256::cells_per_segment;
  std::vector<seg256::node_type*> nodes;
  for (std::size_t i = 0; i < k; ++i) nodes.push_back(s.alloc(0, i, 0, dom));

  auto g = dom.enter(1);
  g.protect_raw(0, nodes[k - 1]);  // pin the LAST cell only

  s.alloc(0, 99, 0, dom);                   // seal segment 1
  for (auto* n : nodes) s.retire(0, n, dom);  // fully consume -> retire_range
  EXPECT_EQ(s.pool_stats().segments_retired, 1);  // pinned: still pending

  g.clear(0);
  dom.scan(0);  // next scan reclaims it
  const auto st = s.pool_stats();
  EXPECT_EQ(st.segments_retired, 0);
  EXPECT_EQ(st.segments_spare, 1);
}

// ------------------------------------------------- retire_range, directly

struct range_probe {
  std::atomic<int> freed{0};
  static void cb(void* ctx, void*) {
    static_cast<range_probe*>(ctx)->freed.fetch_add(1);
  }
};

TEST(RetireRange, HazardScanIsRangeAware) {
  hp_domain dom(2, 2);
  alignas(64) static std::byte buf[128];
  range_probe probe;

  auto g = dom.enter(0);
  g.protect_raw(0, buf + 64);  // an interior pointer, not the base

  dom.retire_range(1, buf, sizeof(buf), &range_probe::cb, &probe);
  EXPECT_EQ(probe.freed.load(), 0);  // interior announcement pins the range

  // One past the end is NOT inside the range.
  g.protect_raw(0, buf + sizeof(buf));
  dom.scan(1);
  EXPECT_EQ(probe.freed.load(), 1);
  g.clear(0);
}

TEST(RetireRange, ExactItemsKeepExactMatching) {
  hp_domain dom(1, 2);
  static int a_obj, b_obj;
  range_probe probe;

  auto g = dom.enter(0);
  g.protect_raw(0, &a_obj);
  dom.retire(0, &a_obj, &range_probe::cb, &probe);
  dom.retire(0, &b_obj, &range_probe::cb, &probe);
  dom.scan(0);
  EXPECT_EQ(probe.freed.load(), 1);  // b freed, a pinned
  g.clear(0);
  dom.scan(0);
  EXPECT_EQ(probe.freed.load(), 2);
}

TEST(RetireRange, LeakyDefersToTeardown) {
  range_probe probe;
  {
    leaky_domain dom(1, 0);
    alignas(16) static std::byte buf[32];
    dom.retire_range(0, buf, sizeof(buf), &range_probe::cb, &probe);
    EXPECT_EQ(probe.freed.load(), 0);
  }
  EXPECT_EQ(probe.freed.load(), 1);
}

// ---------------------------------------------------- accounting (fig10)

// Attach-at-construction and attach-later must agree: the construction
// baseline replay closes the gap of construction allocations (the
// sentinel) invisible to a late-attached counter.
// Traffic between construction and the late attach is not construction:
// the constructor seals the baseline, so the replay leaves it out.
template <typename Q>
class MemAccounting : public ::testing::Test {};
using AccountedQueues =
    ::testing::Types<wf_queue_base<std::uint64_t>, wf_queue_fps<std::uint64_t>,
                     ms_queue<std::uint64_t>,
                     ms_queue<std::uint64_t, testing::eager_hp_domain>,
                     ms_queue<std::uint64_t, leaky_domain>>;
TYPED_TEST_SUITE(MemAccounting, AccountedQueues);

TYPED_TEST(MemAccounting, LateAttachReplaysConstructionBaseline) {
  mem_counters at_ctor, late;
  TypeParam q1(3, &at_ctor);
  TypeParam q2(3);
  for (std::uint64_t i = 0; i < 10; ++i) q2.enqueue(i, 0);
  q2.set_memory_counters(&late);
  EXPECT_EQ(at_ctor.live_bytes(), late.live_bytes());
  EXPECT_EQ(at_ctor.live_objects(), late.live_objects());
  EXPECT_GT(late.live_bytes(), 0);
}

// Every allocation the queue makes is matched by a free by destruction
// time: live counters return to exactly zero, for BOTH storages. This is
// the invariant the bounded queue's ceiling rests on.
TEST(MemAccounting, LiveBytesReturnToZeroHeapStorage) {
  mem_counters mc;
  {
    wf_queue_base<std::uint64_t> q(3, &mc);
    for (int round = 0; round < 3; ++round) {
      for (std::uint64_t i = 0; i < 200; ++i)
        q.enqueue(i, static_cast<std::uint32_t>(i % 3));
      for (int i = 0; i < 200; ++i) (void)q.dequeue(i % 3);
    }
    EXPECT_GE(mc.live_bytes(), 0);
  }
  EXPECT_EQ(mc.live_bytes(), 0);
  EXPECT_EQ(mc.live_objects(), 0);
}

TEST(MemAccounting, LiveBytesReturnToZeroSegmentStorage) {
  mem_counters mc;
  {
    wf_queue_opt_seg<std::uint64_t> q(3, &mc);
    for (int round = 0; round < 3; ++round) {
      for (std::uint64_t i = 0; i < 200; ++i)
        q.enqueue(i, static_cast<std::uint32_t>(i % 3));
      for (int i = 0; i < 200; ++i) (void)q.dequeue(i % 3);
    }
    EXPECT_GE(mc.live_bytes(), 0);
  }
  EXPECT_EQ(mc.live_bytes(), 0);
  EXPECT_EQ(mc.live_objects(), 0);
}

// --------------------------------------------- segment queue, end to end

TEST(SegmentQueue, FifoRoundtripAndDrain) {
  wf_queue_base_seg<std::uint64_t> q(2);
  for (std::uint64_t i = 0; i < 1000; ++i) q.enqueue(i, 0);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(0).has_value());

  const auto st = q.storage().pool_stats();
  EXPECT_GT(st.segments_allocated + st.segments_recycled, 1u);
}

TEST(SegmentQueue, ConcurrentMpmcKeepsAllValues) {
  constexpr std::uint32_t kProducers = 2, kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 3000;
  wf_queue_opt_seg<std::uint64_t> q(kProducers + kConsumers);

  std::atomic<std::uint64_t> sum{0}, got{0};
  std::vector<std::thread> ts;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.enqueue(p * kPerProducer + i + 1, p);
      }
    });
  }
  for (std::uint32_t c = 0; c < kConsumers; ++c) {
    ts.emplace_back([&, c] {
      const std::uint32_t tid = kProducers + c;
      while (got.load() < kProducers * kPerProducer) {
        if (auto v = q.dequeue(tid)) {
          sum.fetch_add(*v);
          got.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : ts) t.join();

  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(got.load(), n);
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  EXPECT_EQ(q.unsafe_size(), 0u);
}

// ------------------------------------------------------------ obs export

TEST(ObsExport, SegmentPoolStatsAppendStructurally) {
  wf_queue_base_seg<std::uint64_t> q(1);
  for (std::uint64_t i = 0; i < 100; ++i) q.enqueue(i, 0);
  while (q.dequeue(0)) {
  }

  obs::metrics_snapshot snap;
  obs::append_metrics(snap, "segpool", q.storage().pool_stats());
  ASSERT_EQ(snap.size(), 9u);
  EXPECT_EQ(snap[0].name, "segpool.segments_allocated");
  EXPECT_GT(snap[0].value, 0.0);
  EXPECT_EQ(snap[8].name, "segpool.recycle_rate");
  for (const auto& m : snap) EXPECT_TRUE(std::isfinite(m.value));
}

TEST(ObsExport, BoundedCountersAppendStructurally) {
  bounded_counters c{.admitted = 5, .rejected = 2, .overwritten = 1,
                     .block_waits = 0};
  obs::metrics_snapshot snap;
  obs::append_metrics(snap, "bounded", c);
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "bounded.admitted");
  EXPECT_EQ(snap[0].value, 5.0);
  EXPECT_EQ(snap[1].value, 2.0);
}

}  // namespace
}  // namespace kpq
