// Unit tests for the two reclamation domains: protection semantics,
// deferred frees, threshold scanning, and concurrent churn safety.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

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
  {
    auto g = d.enter(0);
    tracked* p = g.protect(0, src);
    EXPECT_EQ(p->payload, 5);
    EXPECT_EQ(d.announced(0, 0), p);
  }
  EXPECT_EQ(d.announced(0, 0), nullptr);
  delete src.load();
}

TEST_F(HpFixture, ProtectedObjectSurvivesRetire) {
  hp_domain d(2, 2, /*scan_threshold=*/1);  // scan on every retire
  std::atomic<tracked*> src{new tracked(1)};
  {
    auto g0 = d.enter(0);
    tracked* p = g0.protect(0, src);

    // Thread 1 swaps the pointer out and retires the old one; the scan runs
    // immediately but must keep `p` alive because thread 0 announces it.
    src.store(new tracked(2));
    d.retire(1, p, &delete_tracked, nullptr);
    EXPECT_EQ(tracked::live.load(), 2) << "retired-but-protected object freed";
    EXPECT_EQ(p->payload, 1);  // still dereferenceable
  }
  // The guard has exited. Another retirement triggers a scan that can now
  // free `p`.
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
    g.protect(2, src);
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
  // A guard's exit clears its slots; the next guard's protect must announce
  // the same pointer afresh.
  std::atomic<tracked*> src{new tracked(4)};
  tracked* p = d.enter(0).protect(0, src);
  ASSERT_EQ(d.announced(0, 0), nullptr);
  auto g = d.enter(0);
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
  {
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
  }
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

TEST_F(HpFixture, ScanFreesEveryUnannouncedRetirement) {
  hp_domain d(2, 1, /*scan_threshold=*/1000);  // scans only when asked
  for (int i = 0; i < 100; ++i) {
    d.retire(0, new tracked(i), &delete_tracked, nullptr);
  }
  ASSERT_EQ(d.freed_count(), 0u);
  d.scan(0);
  EXPECT_EQ(d.freed_count(), 100u);
  EXPECT_EQ(d.pending_count(), 0u);
  EXPECT_EQ(tracked::live.load(), 0);
}

TEST_F(HpFixture, ScanKeepsExactlyTheAnnouncedObjects) {
  // Two readers announce one object each; a scan frees every other
  // retirement, and ending one reader's guard releases that object alone.
  hp_domain d(3, 1, /*scan_threshold=*/1000);
  std::vector<tracked*> objs;
  for (int i = 0; i < 50; ++i) objs.push_back(new tracked(i));
  std::atomic<tracked*> a{objs[10]};
  std::atomic<tracked*> b{objs[40]};
  auto g2 = d.enter(2);
  ASSERT_EQ(g2.protect(0, b), objs[40]);
  {
    auto g1 = d.enter(1);
    ASSERT_EQ(g1.protect(0, a), objs[10]);

    for (tracked* p : objs) d.retire(0, p, &delete_tracked, nullptr);
    d.scan(0);
    EXPECT_EQ(d.freed_count(), 48u);
    EXPECT_EQ(d.pending_count(), 2u);
    EXPECT_EQ(tracked::live.load(), 2);
    EXPECT_EQ(objs[10]->payload, 10);
    EXPECT_EQ(objs[40]->payload, 40);
  }
  d.scan(0);
  EXPECT_EQ(d.pending_count(), 1u);
  EXPECT_EQ(tracked::live.load(), 1);
  EXPECT_EQ(objs[40]->payload, 40);
}

TEST_F(HpFixture, InteriorAnnouncementDoesNotKeepAnObject) {
  // Every retirement is one object matched by its exact address: a slot
  // naming a byte inside it, or one past its end, keeps nothing.
  hp_domain d(2, 2, /*scan_threshold=*/1000);
  auto* obj = new tracked(7);
  auto* keep = new tracked(8);
  std::atomic<char*> inside_obj{reinterpret_cast<char*>(obj) + 1};
  std::atomic<tracked*> keep_src{keep};
  std::atomic<char*> past_keep{reinterpret_cast<char*>(keep) + sizeof(tracked)};
  auto g = d.enter(1);
  g.protect(0, inside_obj);
  g.protect(1, keep_src);
  d.retire(0, obj, &delete_tracked, nullptr);
  d.retire(0, keep, &delete_tracked, nullptr);
  d.scan(0);
  EXPECT_EQ(d.freed_count(), 1u);
  EXPECT_EQ(tracked::live.load(), 1);
  EXPECT_EQ(keep->payload, 8);

  g.protect(1, past_keep);
  d.scan(0);
  EXPECT_EQ(d.freed_count(), 2u);
  EXPECT_EQ(tracked::live.load(), 0);
}

TEST_F(HpFixture, RootsKeepTheObjectsTheyName) {
  // A registered root names one retired object: no slot announces it, yet
  // every scan keeps it until the root stops naming it.
  hp_domain d(1, 1, /*scan_threshold=*/1000);
  struct roots {
    void* named = nullptr;
    static void append(void* ctx, std::vector<void*>& out) {
      if (void* p = static_cast<roots*>(ctx)->named) out.push_back(p);
    }
  } r;
  d.set_roots(&roots::append, &r);
  auto* kept = new tracked(7);
  r.named = kept;
  d.retire(0, kept, &delete_tracked, nullptr);
  d.retire(0, new tracked(8), &delete_tracked, nullptr);
  d.scan(0);
  EXPECT_EQ(d.freed_count(), 1u);
  EXPECT_EQ(tracked::live.load(), 1);
  EXPECT_EQ(kept->payload, 7);

  r.named = nullptr;
  d.scan(0);
  EXPECT_EQ(d.pending_count(), 0u);
  EXPECT_EQ(tracked::live.load(), 0);
}

TEST_F(HpFixture, ScanTouchesOnlyTheCallersRetiredList) {
  hp_domain d(2, 1, /*scan_threshold=*/1000);
  for (int i = 0; i < 5; ++i) {
    d.retire(0, new tracked(i), &delete_tracked, nullptr);
  }
  d.retire(1, new tracked(99), &delete_tracked, nullptr);
  d.scan(1);
  EXPECT_EQ(d.freed_count(), 1u);
  EXPECT_EQ(d.pending_count(), 5u);
  EXPECT_EQ(tracked::live.load(), 5);
  d.scan(0);
  EXPECT_EQ(d.pending_count(), 0u);
  EXPECT_EQ(tracked::live.load(), 0);
}

TEST_F(HpFixture, StalledReaderBoundsPendingBelowThreshold) {
  // A reader that never clears its slots keeps what it announces alive,
  // but cannot make the retiring thread's backlog grow: after every
  // retirement the list holds fewer than `scan_threshold` objects.
  constexpr std::uint32_t kThreshold = 8;
  hp_domain d(2, 2, kThreshold);
  tracked* held0 = new tracked(-1);
  tracked* held1 = new tracked(-2);
  std::atomic<tracked*> s0{held0};
  std::atomic<tracked*> s1{held1};
  auto stalled = d.enter(1);
  ASSERT_EQ(stalled.protect(0, s0), held0);
  ASSERT_EQ(stalled.protect(1, s1), held1);
  d.retire(0, held0, &delete_tracked, nullptr);
  d.retire(0, held1, &delete_tracked, nullptr);

  for (int i = 0; i < 1000; ++i) {
    d.retire(0, new tracked(i), &delete_tracked, nullptr);
    ASSERT_LT(d.pending_count(), kThreshold) << "after retirement " << i;
  }
  EXPECT_LT(tracked::live.load(), static_cast<int>(kThreshold));
  EXPECT_EQ(held0->payload, -1);
  EXPECT_EQ(held1->payload, -2);
}

TEST_F(HpFixture, GuardsOfDifferentThreadsAreIndependent) {
  hp_domain d(2, 1);
  std::atomic<tracked*> src{new tracked(6)};
  auto g1 = d.enter(1);
  tracked* p = g1.protect(0, src);
  {
    auto g0 = d.enter(0);
    EXPECT_EQ(g0.protect(0, src), p);
  }
  EXPECT_EQ(d.announced(0, 0), nullptr);
  EXPECT_EQ(d.announced(1, 0), p) << "thread 0's guard cleared thread 1";
  delete src.load();
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
