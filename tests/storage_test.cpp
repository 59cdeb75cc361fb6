// The storage layer's accounting: exact live bytes (including the
// construction baseline) and the obs export of the bounded queue's
// admission counters.
#include <gtest/gtest.h>

#include <cstdint>

#include "baseline/ms_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/mem_tracker.hpp"
#include "obs/registry.hpp"
#include "reclaim/leaky.hpp"
#include "storage/bounded_wf_queue.hpp"
#include "support/baton.hpp"
#include "support/fault_storage.hpp"

namespace kpq {
namespace {

// ---------------------------------------------------- accounting (fig10)

// The sink is a constructor argument, so the construction allocation (the
// sentinel) is counted like every later one.
template <typename Q>
class MemAccounting : public ::testing::Test {};
using AccountedQueues =
    ::testing::Types<wf_queue_base<std::uint64_t>, wf_queue_fps<std::uint64_t>,
                     ms_queue<std::uint64_t>,
                     ms_queue<std::uint64_t, testing::eager_hp_domain>,
                     ms_queue<std::uint64_t, leaky_domain>>;
TYPED_TEST_SUITE(MemAccounting, AccountedQueues);

TYPED_TEST(MemAccounting, SinkPassedAtConstructionCountsTheSentinel) {
  mem_counters mc;
  {
    TypeParam q(3, &mc);
    EXPECT_EQ(mc.live_objects(), 1);
    EXPECT_EQ(mc.total_allocs(), 1u);
    EXPECT_GT(mc.live_bytes(), 0);
  }
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

// Every allocation the queue makes is matched by a free by destruction
// time: live counters return to exactly zero. This is the invariant the
// bounded queue's ceiling rests on.
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

// The same over a storage that frees each reclaimed node instead of
// recycling it: every node leaves through exactly one of the reclaimer's
// frees or the destructor's release.
TEST(MemAccounting, LiveBytesReturnToZeroFreeingStorage) {
  mem_counters mc;
  {
    testing::freeing_opt<std::uint64_t> q(3, &mc);
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

// ------------------------------------------------------------ obs export

TEST(ObsExport, BoundedCountersAppendStructurally) {
  bounded_counters c{.admitted = 5, .rejected = 2, .overwritten = 1};
  obs::metrics_snapshot snap;
  obs::append_metrics(snap, "bounded", c);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "bounded.admitted");
  EXPECT_EQ(snap[0].value, 5.0);
  EXPECT_EQ(snap[1].value, 2.0);
}

}  // namespace
}  // namespace kpq
