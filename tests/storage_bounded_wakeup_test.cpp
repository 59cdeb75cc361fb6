// Lost-wakeup regression tests for bounded_wf_queue's block-admission path
// (the ISSUE-8 audit of the enqueue-without-notify case documented in
// storage/bounded_wf_queue.hpp wait_for_room):
//
//   1. Space can appear with NO notify attached — draining through inner()
//     bypasses the bounded dequeue wrapper entirely, standing in for the
//     reclaimer freeing nodes asynchronously. A blocked producer
//     must still make progress via the timed recheck backstop.
//   2. block/close/drain interleavings under load: producers blocking at
//     the ceiling while consumers drain and a closer races — nobody may
//     hang, and admitted items are conserved exactly once.
#include "storage/bounded_wf_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "sync/thread_registry.hpp"

namespace kpq {
namespace {

using namespace std::chrono_literals;

/// A ceiling `nodes` nodes above the smallest legal one for 8 threads.
std::size_t ceiling_for(std::size_t nodes) {
  const bounded_wf_queue<std::uint64_t> probe(
      8, bounded_config{std::size_t{1} << 24});
  return probe.floor_bytes() +
         nodes * sizeof(bounded_wf_queue<std::uint64_t>::inner_type::node_type);
}

bounded_config small_block_cfg() {
  bounded_config cfg{ceiling_for(1024), full_policy::block};
  cfg.block_recheck = 1ms;
  return cfg;
}

// Fill to the ceiling, then free space WITHOUT a notify (drain through
// inner(), which never touches the room hub — the stand-in for reclamation
// freeing nodes). The blocked producer must recover via the timed
// recheck alone, within a bound ~ block_recheck, not hang.
TEST(BoundedWakeup, EnqueueWithoutNotifyRecoversViaTimedRecheck) {
  bounded_wf_queue<std::uint64_t> q(8, small_block_cfg());
  std::uint64_t n = 0;
  while (q.try_enqueue_nowait(n, this_thread_id())) ++n;
  ASSERT_GT(n, 0u);

  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    // Blocks at the ceiling until space appears.
    EXPECT_TRUE(q.try_enqueue(n, this_thread_id()));
    admitted.store(true);
  });
  // Let the producer actually park.
  while (q.stats().block_waits == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  // Free room with no notify: drain through the inner queue directly. The
  // producer may be admitted mid-drain, so its item can show up here too.
  std::size_t drained = 0;
  while (q.inner().dequeue(this_thread_id()).has_value()) ++drained;
  EXPECT_GE(drained, n);
  producer.join();  // timed recheck must admit it; a hang fails via timeout
  EXPECT_TRUE(admitted.load());
  while (q.inner().dequeue(this_thread_id()).has_value()) ++drained;
  EXPECT_EQ(drained, n + 1);  // conservation, exactly once
  EXPECT_EQ(q.stats().admitted, n + 1);
}

// Producers hammering the ceiling against draining consumers with a closer
// racing the tail: every producer must return (admitted or closed-reject),
// and conservation must hold exactly once.
TEST(BoundedWakeup, BlockCloseDrainInterleavingStress) {
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    bounded_wf_queue<std::uint64_t> q(8, small_block_cfg());
    constexpr int kProducers = 2;
    constexpr int kPerProducer = 400;
    std::atomic<std::uint64_t> produced{0};
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<int> producers_done{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const std::uint64_t v =
              static_cast<std::uint64_t>(p) * kPerProducer + i;
          if (q.try_enqueue(v, this_thread_id())) {
            produced.fetch_add(1);
          } else {
            break;  // closed while blocked: legal exit
          }
        }
        producers_done.fetch_add(1);
      });
    }
    std::vector<std::thread> consumers;
    std::atomic<bool> stop_consuming{false};
    for (int c = 0; c < 2; ++c) {
      consumers.emplace_back([&] {
        while (!stop_consuming.load()) {
          if (q.dequeue(this_thread_id()).has_value()) {
            consumed.fetch_add(1);
          } else {
            std::this_thread::yield();
          }
        }
        // final drain
        while (q.dequeue(this_thread_id()).has_value()) {
          consumed.fetch_add(1);
        }
      });
    }
    // On odd rounds, close early to race blocked producers; on even rounds
    // let everything through.
    if (round % 2 == 1) {
      while (q.stats().block_waits == 0 &&
             producers_done.load() < kProducers) {
        std::this_thread::yield();
      }
      q.close();
    }
    for (auto& t : threads) t.join();
    q.close();  // idempotent
    stop_consuming.store(true);
    for (auto& t : consumers) t.join();
    EXPECT_EQ(consumed.load(), produced.load()) << "round " << round;
    EXPECT_EQ(q.stats().admitted, produced.load()) << "round " << round;
  }
}

// close() must release a parked producer promptly (not only via timeout).
TEST(BoundedWakeup, CloseReleasesParkedProducer) {
  bounded_config cfg{ceiling_for(1024), full_policy::block};
  cfg.block_recheck = std::chrono::milliseconds(10'000);  // recheck is NOT
                                                          // the wakeup here
  bounded_wf_queue<std::uint64_t> q(8, cfg);
  std::uint64_t n = 0;
  while (q.try_enqueue_nowait(n, this_thread_id())) ++n;
  ASSERT_GT(n, 0u);
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    rejected.store(!q.try_enqueue(n, this_thread_id()));
  });
  while (q.stats().block_waits == 0) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  q.close();
  producer.join();
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(rejected.load());
  EXPECT_LT(dt, 5s);  // far below the 10s recheck: the notify did it
}

// A dequeue-side notify must wake a parked producer even when many
// producers contend for one freed slot (token pass-on, not token loss).
TEST(BoundedWakeup, DequeueNotifyWakesBlockedProducers) {
  constexpr std::uint32_t kProducers = 3;
  bounded_wf_queue<std::uint64_t> q(8, small_block_cfg());
  std::uint64_t n = 0;
  while (q.try_enqueue_nowait(n, this_thread_id())) ++n;
  ASSERT_GT(n, kProducers);

  std::atomic<std::uint32_t> admitted{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      if (q.try_enqueue(1, this_thread_id())) admitted.fetch_add(1);
    });
  }
  while (q.stats().block_waits < kProducers) std::this_thread::yield();
  // Drain through the NOTIFYING path this time (newly admitted items can
  // arrive mid-drain and be consumed by this same loop).
  std::size_t drained = 0;
  while (q.dequeue(this_thread_id()).has_value()) ++drained;
  EXPECT_GE(drained, n);
  for (auto& t : producers) t.join();
  EXPECT_EQ(admitted.load(), kProducers);
  EXPECT_EQ(q.stats().block_waits, kProducers);
  while (q.dequeue(this_thread_id()).has_value()) ++drained;
  EXPECT_EQ(drained, n + kProducers);  // conservation, exactly once
}

}  // namespace
}  // namespace kpq
