// Unit tests for the three reclamation domains: protection semantics,
// deferred frees, threshold scanning, and concurrent churn safety.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "reclaim/epoch.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/leaky.hpp"

namespace kpq {
namespace {

struct tracked {
  static std::atomic<int> live;
  int payload;
  explicit tracked(int p = 0) : payload(p) { live.fetch_add(1); }
  ~tracked() { live.fetch_sub(1); }
};
std::atomic<int> tracked::live{0};

void delete_tracked(void* /*ctx*/, void* p) { delete static_cast<tracked*>(p); }

class TrackedFixture : public ::testing::Test {
 protected:
  void SetUp() override { tracked::live.store(0); }
};

// ------------------------------------------------------------------ hazard

using HpFixture = TrackedFixture;

TEST_F(HpFixture, ProtectReturnsCurrentValue) {
  hp_domain d(2, 2);
  std::atomic<tracked*> src{new tracked(5)};
  auto g = d.enter(0);
  tracked* p = g.protect(0, src);
  EXPECT_EQ(p->payload, 5);
  EXPECT_EQ(d.announced(0, 0), p);
  g.clear(0);
  EXPECT_EQ(d.announced(0, 0), nullptr);
  delete src.load();
}

TEST_F(HpFixture, ProtectedObjectSurvivesRetire) {
  hp_domain d(2, 2, /*scan_threshold=*/1);  // scan on every retire
  std::atomic<tracked*> src{new tracked(1)};
  auto g0 = d.enter(0);
  tracked* p = g0.protect(0, src);

  // Thread 1 swaps the pointer out and retires the old one; the scan runs
  // immediately but must keep `p` alive because thread 0 announces it.
  src.store(new tracked(2));
  d.retire(1, p, &delete_tracked, nullptr);
  EXPECT_EQ(tracked::live.load(), 2) << "retired-but-protected object freed";
  EXPECT_EQ(p->payload, 1);  // still dereferenceable

  g0.clear(0);
  // Another retirement triggers a scan that can now free `p`.
  d.retire(1, src.exchange(nullptr), &delete_tracked, nullptr);
  EXPECT_EQ(tracked::live.load(), 0);
}

TEST_F(HpFixture, GuardDestructorClearsAllSlots) {
  hp_domain d(1, 3);
  std::atomic<tracked*> src{new tracked(9)};
  {
    auto g = d.enter(0);
    g.protect(0, src);
    g.protect(1, src);
    g.protect_raw(2, src.load());
  }
  for (std::uint32_t s = 0; s < 3; ++s) EXPECT_EQ(d.announced(0, s), nullptr);
  delete src.load();
}

TEST_F(HpFixture, ReprotectOfUnchangedSourceKeepsSlot) {
  hp_domain d(1, 1);
  std::atomic<tracked*> src{new tracked(3)};
  auto g = d.enter(0);
  tracked* p = g.protect(0, src);
  tracked* again = g.protect(0, src);
  EXPECT_EQ(again, p);
  EXPECT_EQ(d.announced(0, 0), p);
  delete src.load();
}

TEST_F(HpFixture, ReprotectAfterSwapAnnouncesNewPointer) {
  hp_domain d(1, 1);
  tracked* first = new tracked(1);
  std::atomic<tracked*> src{first};
  auto g = d.enter(0);
  EXPECT_EQ(g.protect(0, src), first);
  tracked* second = new tracked(2);
  src.store(second);
  EXPECT_EQ(g.protect(0, src), second);
  EXPECT_EQ(d.announced(0, 0), second);
  delete first;
  delete second;
}

TEST_F(HpFixture, ProtectAfterClearAnnouncesAgain) {
  hp_domain d(1, 1);
  std::atomic<tracked*> src{new tracked(4)};
  auto g = d.enter(0);
  tracked* p = g.protect(0, src);
  g.clear(0);
  ASSERT_EQ(d.announced(0, 0), nullptr);
  EXPECT_EQ(g.protect(0, src), p);
  EXPECT_EQ(d.announced(0, 0), p);
  delete src.load();
}

TEST_F(HpFixture, RetireAndScanBetweenReprotectsDoNotFree) {
  // The second protect skips the announce (the slot already holds p); the
  // standing announcement must still keep p alive through every scan.
  hp_domain d(2, 1, /*scan_threshold=*/1000);  // scans only when asked
  tracked* p = new tracked(7);
  std::atomic<tracked*> src{p};
  auto g0 = d.enter(0);
  ASSERT_EQ(g0.protect(0, src), p);
  d.retire(1, p, &delete_tracked, nullptr);
  d.scan(1);
  EXPECT_EQ(tracked::live.load(), 1) << "announced object freed";
  ASSERT_EQ(g0.protect(0, src), p);
  d.scan(1);
  EXPECT_EQ(tracked::live.load(), 1) << "re-protected object freed";
  EXPECT_EQ(p->payload, 7);

  src.store(nullptr);
  g0.clear(0);
  d.scan(1);
  EXPECT_EQ(tracked::live.load(), 0);
}

TEST_F(HpFixture, DomainDestructorDrainsRetired) {
  {
    hp_domain d(1, 1, /*scan_threshold=*/1000);  // never scans
    for (int i = 0; i < 10; ++i) {
      d.retire(0, new tracked(i), &delete_tracked, nullptr);
    }
    EXPECT_EQ(tracked::live.load(), 10);
  }
  EXPECT_EQ(tracked::live.load(), 0);
}

TEST_F(HpFixture, ThresholdTriggersScan) {
  hp_domain d(1, 1, /*scan_threshold=*/8);
  for (int i = 0; i < 32; ++i) {
    d.retire(0, new tracked(i), &delete_tracked, nullptr);
  }
  EXPECT_GT(d.freed_count(), 0u);
  EXPECT_EQ(d.retired_count(), 32u);
  EXPECT_LT(tracked::live.load(), 32);
}

TEST_F(HpFixture, ProtectFollowsConcurrentSwaps) {
  // The validation loop must never return a value that was not in `src` at
  // announcement time. Churn the source from another thread and verify the
  // protected object is always dereferenceable with a sane payload.
  hp_domain d(2, 1, /*scan_threshold=*/4);
  std::atomic<tracked*> src{new tracked(0)};
  std::atomic<bool> stop{false};

  std::thread churner([&] {
    for (int i = 1; i < 4000; ++i) {
      tracked* fresh = new tracked(i);
      tracked* old = src.exchange(fresh);
      d.retire(1, old, &delete_tracked, nullptr);
    }
    stop.store(true);
  });

  std::uint64_t reads = 0;
  // Single-core schedulers may run the churner to completion first; insist
  // on a minimum number of protected reads either way.
  while (reads < 500 || !stop.load()) {
    auto g = d.enter(0);
    tracked* p = g.protect(0, src);
    // Dereference: ASan/valgrind would flag use-after-free instantly; the
    // payload bound checks heap sanity without them.
    ASSERT_GE(p->payload, 0);
    ASSERT_LT(p->payload, 4000);
    ++reads;
  }
  churner.join();
  EXPECT_GT(reads, 0u);
  delete src.exchange(nullptr);
}

// ------------------------------------------------------------------- epoch

using EpochFixture = TrackedFixture;

TEST_F(EpochFixture, RetireFreesAfterQuiescence) {
  epoch_domain d(2, 0, /*flush_threshold=*/1);
  for (int i = 0; i < 100; ++i) {
    d.retire(0, new tracked(i), &delete_tracked, nullptr);
  }
  // No guards active: epochs advance freely; most buckets must have drained.
  EXPECT_GT(d.freed_count(), 0u);
}

TEST_F(EpochFixture, ActiveGuardBlocksReclamation) {
  epoch_domain d(2, 0, /*flush_threshold=*/1);
  std::atomic<tracked*> src{new tracked(7)};
  auto g = d.enter(0);  // pins the current epoch
  tracked* p = g.protect(0, src);

  src.store(new tracked(8));
  for (int i = 0; i < 50; ++i) {
    d.retire(1, new tracked(100 + i), &delete_tracked, nullptr);
  }
  d.retire(1, p, &delete_tracked, nullptr);
  d.try_advance(1);
  d.try_advance(1);
  // p was retired at an epoch >= our pin; with the pin held the epoch
  // cannot advance two steps past it, so p must still be alive.
  EXPECT_EQ(p->payload, 7);
  delete src.exchange(nullptr);
}

TEST_F(EpochFixture, EpochAdvancesWhenAllActiveCaughtUp) {
  epoch_domain d(2, 0, /*flush_threshold=*/1);
  const std::uint64_t e0 = d.epoch();
  d.retire(0, new tracked(1), &delete_tracked, nullptr);
  d.retire(0, new tracked(2), &delete_tracked, nullptr);
  d.retire(0, new tracked(3), &delete_tracked, nullptr);
  EXPECT_GT(d.epoch(), e0);
}

TEST_F(EpochFixture, NestedGuardsUnpinOnlyAtOutermostExit) {
  epoch_domain d(1, 0, /*flush_threshold=*/1);
  {
    auto outer = d.enter(0);
    {
      auto inner = d.enter(0);
    }
    // Outer still active: retiring from a hypothetical second thread could
    // not advance 2 epochs — here we just check no crash and that exit is
    // clean.
    std::atomic<tracked*> src{new tracked(1)};
    tracked* p = outer.protect(0, src);
    EXPECT_EQ(p->payload, 1);
    delete src.load();
  }
  SUCCEED();
}

TEST_F(EpochFixture, ConcurrentChurnIsSafe) {
  epoch_domain d(2, 0, /*flush_threshold=*/8);
  std::atomic<tracked*> src{new tracked(0)};
  std::atomic<bool> stop{false};

  std::thread churner([&] {
    for (int i = 1; i < 3000; ++i) {
      tracked* fresh = new tracked(i);
      tracked* old = src.exchange(fresh);
      d.retire(1, old, &delete_tracked, nullptr);
    }
    stop.store(true);
  });

  while (!stop.load()) {
    auto g = d.enter(0);
    tracked* p = g.protect(0, src);
    ASSERT_GE(p->payload, 0);
    ASSERT_LT(p->payload, 3000);
  }
  churner.join();
  delete src.exchange(nullptr);
}

// ------------------------------------------------------------------- leaky

using LeakyFixture = TrackedFixture;

TEST_F(LeakyFixture, NothingFreedUntilDestruction) {
  {
    leaky_domain d(1, 0);
    for (int i = 0; i < 25; ++i) {
      d.retire(0, new tracked(i), &delete_tracked, nullptr);
    }
    EXPECT_EQ(tracked::live.load(), 25);
    EXPECT_EQ(d.freed_count(), 0u);
    EXPECT_EQ(d.retired_count(), 25u);
  }
  EXPECT_EQ(tracked::live.load(), 0);
}

TEST_F(LeakyFixture, ProtectIsPlainLoad) {
  leaky_domain d(1, 0);
  std::atomic<tracked*> src{new tracked(3)};
  auto g = d.enter(0);
  EXPECT_EQ(g.protect(0, src)->payload, 3);
  delete src.load();
}

}  // namespace
}  // namespace kpq
