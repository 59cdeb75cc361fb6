// Unit tests for the low-level synchronization substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sync/backoff.hpp"
#include "sync/cacheline.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/thread_registry.hpp"

namespace kpq {
namespace {

// ---------------------------------------------------------------- cacheline

TEST(Padded, ElementsDoNotShareCacheLines) {
  padded<std::atomic<int>> arr[4];
  for (int i = 0; i < 3; ++i) {
    auto a = reinterpret_cast<std::uintptr_t>(&arr[i].value);
    auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1].value);
    EXPECT_GE(b - a, cacheline_size);
  }
}

TEST(Padded, ForwardsConstructorArguments) {
  padded<std::vector<int>> v(std::size_t{5}, 7);
  EXPECT_EQ(v->size(), 5u);
  EXPECT_EQ((*v)[0], 7);
}

// ------------------------------------------------------------------ backoff

TEST(Backoff, IsCallableManyTimesAndResets) {
  backoff bo(16);
  for (int i = 0; i < 100; ++i) bo();  // must terminate promptly
  bo.reset();
  for (int i = 0; i < 10; ++i) bo();
  SUCCEED();
}

// ------------------------------------------------------------- spin_barrier

TEST(SpinBarrier, ReleasesAllPartiesExactlyOneSerial) {
  constexpr std::uint32_t kThreads = 4;
  spin_barrier b(kThreads);
  std::atomic<int> serials{0};
  std::atomic<int> passed{0};
  std::vector<std::thread> ts;
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    ts.emplace_back([&] {
      if (b.arrive_and_wait()) serials.fetch_add(1);
      passed.fetch_add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(passed.load(), 4);
  EXPECT_EQ(serials.load(), 1);
}

TEST(SpinBarrier, IsReusableAcrossGenerations) {
  constexpr std::uint32_t kThreads = 3;
  constexpr int kRounds = 20;
  spin_barrier b(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> ts;
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    ts.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        counter.fetch_add(1);
        b.arrive_and_wait();
        // Between generations every thread must observe the full round.
        EXPECT_GE(counter.load(), (r + 1) * static_cast<int>(kThreads));
        b.arrive_and_wait();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter.load(), kRounds * static_cast<int>(kThreads));
}

// ---------------------------------------------------------- thread_registry

TEST(ThreadRegistry, AcquireReturnsDistinctIds) {
  auto& reg = thread_registry::instance();
  std::uint32_t a = reg.acquire();
  std::uint32_t b = reg.acquire();
  std::uint32_t c = reg.acquire();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_TRUE(reg.is_claimed(a));
  reg.release(a);
  EXPECT_FALSE(reg.is_claimed(a));
  // Lowest-free policy: the freed id is handed out again.
  EXPECT_EQ(reg.acquire(), a);
  reg.release(a);
  reg.release(b);
  reg.release(c);
}

TEST(ThreadRegistry, ThreadLocalIdsAreStablePerThread) {
  const std::uint32_t id1 = this_thread_id();
  const std::uint32_t id2 = this_thread_id();
  EXPECT_EQ(id1, id2);
}

TEST(ThreadRegistry, ConcurrentThreadsGetUniqueIds) {
  constexpr int kThreads = 16;
  std::vector<std::uint32_t> ids(kThreads);
  spin_barrier b(kThreads);
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&, i] {
      // Claim before the barrier: until every thread has arrived, no thread
      // can exit, so all 16 ids are held simultaneously and must differ.
      const std::uint32_t id = this_thread_id();
      b.arrive_and_wait();
      ids[static_cast<std::size_t>(i)] = id;
    });
  }
  for (auto& t : ts) t.join();
  std::set<std::uint32_t> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads));
}

TEST(ThreadRegistry, IdsAreReleasedOnThreadExit) {
  std::uint32_t seen = 0;
  std::thread t([&] { seen = this_thread_id(); });
  t.join();
  // The id used by the dead thread must be reusable. Spawn another thread
  // and expect the dense low namespace to stay small.
  std::uint32_t seen2 = 0;
  std::thread t2([&] { seen2 = this_thread_id(); });
  t2.join();
  EXPECT_EQ(seen, seen2) << "dead thread's id was not recycled";
}

TEST(ThreadRegistry, HighWaterTracksClaims) {
  auto& reg = thread_registry::instance();
  const std::uint32_t base = reg.high_water();
  std::uint32_t id = reg.acquire();
  EXPECT_GE(reg.high_water(), base);
  EXPECT_GE(reg.high_water(), id + 1);
  reg.release(id);
}

// Exhaustion is defined: a claim on a full registry aborts with a message
// naming the limit. The marker pins the abort to that extra claim.
TEST(ThreadRegistryDeathTest, AcquireOnFullRegistryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string limit = std::to_string(max_registered_threads);
  EXPECT_DEATH(
      {
        auto& reg = thread_registry::instance();
        for (std::uint32_t tid = 0; tid < max_registered_threads; ++tid) {
          if (!reg.is_claimed(tid)) (void)reg.acquire();
        }
        std::fprintf(stderr, "all %s tids claimed\n", limit.c_str());
        (void)reg.acquire();
      },
      "all " + limit + " tids claimed.*more than " + limit +
          " concurrent threads");
}

}  // namespace
}  // namespace kpq
