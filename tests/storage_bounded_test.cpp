// bounded_wf_queue: the hard memory ceiling and the three full-queue
// policies, exercised deterministically single-threaded and under real MPMC
// contention (the ceiling assertion sampled from every producer iteration),
// plus the block-policy shutdown drain mirroring blocking_adapter_test, the
// liveness floor (a drained queue at the smallest legal ceiling has room)
// and the sharded-over-bounded composition. Ceilings are stated as the
// floor plus a number of nodes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "scale/sharded_queue.hpp"
#include "storage/bounded_wf_queue.hpp"

namespace kpq {
namespace {

using bq = bounded_wf_queue<std::uint64_t>;
using inner_q = bq::inner_type;

constexpr std::size_t kNode = sizeof(inner_q::node_type);

/// The admission headroom the constructor computes: one node per thread.
std::size_t headroom_for(std::uint32_t n) {
  return static_cast<std::size_t>(n) * kNode;
}

/// The smallest legal ceiling for `n` threads (construction footprint,
/// headroom, and the nodes each thread may park in its recycle cache and
/// retired list), read off a throwaway instance.
std::size_t floor_for(std::uint32_t n) {
  bounded_config big{.max_bytes = std::size_t{1} << 24};
  bq probe(n, big);
  return probe.floor_bytes();
}

/// A ceiling `nodes` nodes above the floor.
std::size_t ceiling_for(std::uint32_t n, std::size_t nodes) {
  return floor_for(n) + nodes * kNode;
}

// --------------------------------------------------------------- reject

TEST(BoundedReject, CapsThenRecoversAfterDrain) {
  constexpr std::uint32_t n = 2;
  bounded_config cfg{.max_bytes = 0, .policy = full_policy::reject};
  cfg.max_bytes = ceiling_for(n, 128);
  bq q(n, cfg);

  // Fill to rejection; the ceiling must hold at every step.
  std::uint64_t admitted = 0;
  while (q.try_enqueue(admitted, 0)) {
    ++admitted;
    ASSERT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
    ASSERT_LT(admitted, 100000u) << "ceiling never reached";
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(q.stats().admitted, admitted);
  EXPECT_EQ(q.stats().rejected, 1u);
  EXPECT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));

  // Drain in FIFO order; the drained nodes past the recycle cache are freed,
  // so the queue must accept again.
  for (std::uint64_t i = 0; i < admitted; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(1).has_value());
  EXPECT_TRUE(q.try_enqueue(999, 0));
  EXPECT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
}

TEST(BoundedReject, CeilingHoldsUnderMpmcContention) {
  constexpr std::uint32_t kProducers = 2;
  constexpr std::uint32_t n = kProducers + 1;
  bounded_config cfg{.max_bytes = 0, .policy = full_policy::reject};
  cfg.max_bytes = ceiling_for(n, 256);
  bq q(n, cfg);

  constexpr std::uint64_t kAttempts = 20000;
  std::atomic<std::uint64_t> enq_ok{0}, violations{0};
  std::atomic<bool> producing{true};

  std::vector<std::thread> prod;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    prod.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kAttempts; ++i) {
        if (q.try_enqueue(i, p)) enq_ok.fetch_add(1);
        if (q.live_bytes() > static_cast<std::int64_t>(cfg.max_bytes)) {
          violations.fetch_add(1);
        }
      }
    });
  }
  std::thread cons([&] {
    while (producing.load(std::memory_order_relaxed)) {
      (void)q.dequeue(kProducers);
    }
  });
  for (auto& t : prod) t.join();
  producing.store(false);
  cons.join();
  while (q.dequeue(0).has_value()) {
  }

  EXPECT_EQ(violations.load(), 0u) << "live bytes exceeded the ceiling";
  EXPECT_GT(enq_ok.load(), 0u);
  const auto st = q.stats();
  EXPECT_EQ(st.admitted, enq_ok.load());
  EXPECT_EQ(st.admitted + st.rejected, kProducers * kAttempts);
}

// ---------------------------------------------------------------- block

TEST(BoundedBlock, ProducerBlocksUntilConsumerMakesRoom) {
  constexpr std::uint32_t n = 2;
  bounded_config cfg{.max_bytes = 0, .policy = full_policy::block};
  const std::size_t h = headroom_for(n);
  cfg.max_bytes = ceiling_for(n, 64);
  bq q(n, cfg);

  // Far more values than the ceiling can hold at once: the producer MUST
  // block at least once; the consumer's drain must release it.
  constexpr std::uint64_t kValues = 2000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kValues; ++i) {
      ASSERT_TRUE(q.try_enqueue(i, 0));
      ASSERT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
    }
  });

  // Wait until the producer is actually wedged against the ceiling before
  // draining, so the blocking path is exercised for real.
  while (q.live_bytes() + static_cast<std::int64_t>(h) <=
         static_cast<std::int64_t>(cfg.max_bytes)) {
    std::this_thread::yield();
  }
  std::uint64_t expect = 0;
  while (expect < kValues) {
    if (auto v = q.dequeue(1)) {
      ASSERT_EQ(*v, expect);  // single producer: strict FIFO
      ++expect;
    }
  }
  producer.join();
  EXPECT_GE(q.stats().block_waits, 1u);
  EXPECT_EQ(q.stats().admitted, kValues);
  EXPECT_EQ(q.stats().rejected, 0u);
}

TEST(BoundedBlock, CloseUnblocksProducersAndDrains) {
  constexpr std::uint32_t n = 2;
  bounded_config cfg{.max_bytes = 0, .policy = full_policy::block};
  const std::size_t h = headroom_for(n);
  cfg.max_bytes = ceiling_for(n, 64);
  bq q(n, cfg);

  std::atomic<std::uint64_t> admitted{0};
  std::atomic<bool> got_false{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < 100000; ++i) {
      if (!q.try_enqueue(i, 0)) {
        got_false.store(true);  // woken by close(), not by room
        break;
      }
      admitted.fetch_add(1);
    }
  });

  // Let it wedge against the ceiling, then shut down — the shutdown path
  // blocking_adapter_test checks for empty-waits, here for full-waits.
  while (q.live_bytes() + static_cast<std::int64_t>(h) <=
         static_cast<std::int64_t>(cfg.max_bytes)) {
    std::this_thread::yield();
  }
  q.close();
  producer.join();
  EXPECT_TRUE(got_false.load());
  EXPECT_TRUE(q.closed());

  // Every admitted element is still there, in FIFO order: close() affects
  // producers only.
  for (std::uint64_t i = 0; i < admitted.load(); ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(1).has_value());
}

TEST(BoundedBlock, DrainedQueueAtTheFloorAdmitsParkedProducer) {
  // The smallest legal ceiling: a producer parks on a full queue; a
  // consumer drains everything and then stops, so nobody will notify again.
  // The nodes the drain leaves parked fit under the floor, so the
  // producer's timed re-check must find room.
  using namespace std::chrono_literals;
  constexpr std::uint32_t n = 2;
  bounded_config cfg{.max_bytes = floor_for(n),
                     .policy = full_policy::block,
                     .block_recheck = 10ms};
  bq q(n, cfg);
  std::uint64_t filled = 0;
  while (q.try_enqueue_nowait(filled, 0)) ++filled;
  ASSERT_GT(filled, 0u);

  std::atomic<bool> done{false}, admitted{false};
  std::thread producer([&] {
    admitted.store(q.try_enqueue(filled, 0));
    done.store(true);
  });
  while (q.stats().block_waits == 0) std::this_thread::yield();

  // Drain through the inner queue: the bounded dequeue's notify is not
  // what admits the producer here. It may be admitted mid-drain once the
  // drain starts freeing nodes, so its item can show up too.
  std::uint64_t drained = 0;
  std::thread consumer([&] {
    while (q.inner().dequeue(1).has_value()) ++drained;
  });
  consumer.join();
  // A floor too low parks the producer for good; close() then releases it
  // unadmitted.
  const auto deadline =
      std::chrono::steady_clock::now() + 100 * cfg.block_recheck;
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  if (!done.load()) q.close();
  producer.join();
  ASSERT_TRUE(admitted.load()) << "no room after a full drain at the floor";
  while (q.inner().dequeue(1).has_value()) ++drained;
  EXPECT_EQ(drained, filled + 1);
  EXPECT_EQ(q.stats().admitted, filled + 1);
}

// ----------------------------------------------------- overwrite_oldest

TEST(BoundedOverwrite, DropsOldestKeepsNewestSuffix) {
  constexpr std::uint32_t n = 1;
  bounded_config cfg{.max_bytes = 0,
                     .policy = full_policy::overwrite_oldest};
  cfg.max_bytes = ceiling_for(n, 96);
  bq q(n, cfg);

  constexpr std::uint64_t kValues = 3000;
  for (std::uint64_t i = 0; i < kValues; ++i) {
    ASSERT_TRUE(q.try_enqueue(i, 0));
    ASSERT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
  }
  const auto st = q.stats();
  EXPECT_EQ(st.admitted, kValues);
  EXPECT_GT(st.overwritten, 0u);
  EXPECT_EQ(st.rejected, 0u);

  // What remains must be the newest contiguous suffix: drops always come
  // from the head.
  std::vector<std::uint64_t> rest;
  while (auto v = q.dequeue(0)) rest.push_back(*v);
  ASSERT_FALSE(rest.empty());
  EXPECT_EQ(rest.size() + st.overwritten, kValues);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    ASSERT_EQ(rest[i], kValues - rest.size() + i);
  }
}

/// An hp_domain that reports no scan threshold while still scanning at the
/// default one: the floor then leaves out the retired lists, so a drained
/// queue can hold more parked bytes than the ceiling admits.
struct understated_hp_domain : hp_domain {
  understated_hp_domain(std::uint32_t max_threads, std::uint32_t slots)
      : hp_domain(max_threads, slots) {}
  std::uint32_t scan_threshold() const noexcept { return 0; }
};

TEST(BoundedOverwrite, DegradesToRejectWhenEmptyButOverCeiling) {
  // At a legal ceiling a drained queue always has room (MEMORY.md §2), so
  // this corner needs more parked bytes than the floor counts: here the
  // retired list the reclaimer understates. Then live stays above the
  // admission line with the queue EMPTY — the policy must drain, find
  // nothing left to drop, and reject rather than exceed the ceiling.
  using under_q = bounded_wf_queue<
      std::uint64_t, wf_queue<std::uint64_t, help_one, fetch_add_phase,
                              understated_hp_domain>>;
  constexpr std::uint32_t n = 1;
  const std::size_t floor =
      under_q(n, {.max_bytes = std::size_t{1} << 24}).floor_bytes();
  bounded_config cfg{.max_bytes = floor,
                     .policy = full_policy::overwrite_oldest};
  under_q q(n, cfg);

  bool saw_reject = false;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const bool ok = q.try_enqueue(i, 0);
    ASSERT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
    if (!ok) {
      saw_reject = true;
      break;
    }
  }
  ASSERT_TRUE(saw_reject) << "never hit the degradation path";
  const auto st = q.stats();
  EXPECT_GE(st.rejected, 1u);
  EXPECT_GT(st.overwritten, 0u);  // it drained before giving up
  EXPECT_FALSE(q.dequeue(0).has_value());  // and really is empty
}

// ------------------------------------------------ sharded-over-bounded

TEST(BoundedSharded, ComposesThroughTheFactoryConstructor) {
  constexpr std::uint32_t kShards = 2, n = 2;
  bounded_config cfg{.max_bytes = std::size_t{1} << 22,
                     .policy = full_policy::reject};
  sharded_queue<bq> q(kShards, n, [&](std::uint32_t) {
    return std::make_unique<bq>(n, cfg);
  });

  constexpr std::uint64_t kPerTid = 500;
  for (std::uint64_t i = 0; i < kPerTid; ++i) {
    q.enqueue(i, 0);
    q.enqueue(kPerTid + i, 1);
  }
  // Per-shard ceilings bound the TOTAL at kShards * max_bytes.
  std::int64_t total_live = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_LE(q.shard(s).live_bytes(),
              static_cast<std::int64_t>(cfg.max_bytes));
    total_live += q.shard(s).live_bytes();
  }
  EXPECT_LE(total_live, static_cast<std::int64_t>(kShards * cfg.max_bytes));

  std::uint64_t got = 0, sum = 0;
  while (auto v = q.dequeue(0)) {
    ++got;
    sum += *v;
  }
  EXPECT_EQ(got, 2 * kPerTid);
  EXPECT_EQ(sum, (2 * kPerTid) * (2 * kPerTid - 1) / 2);
  EXPECT_EQ(q.shard(0).stats().admitted + q.shard(1).stats().admitted,
            2 * kPerTid);
}

}  // namespace
}  // namespace kpq
