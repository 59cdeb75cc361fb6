// bounded_wf_queue: the hard memory ceiling and the two full-queue
// policies, exercised deterministically single-threaded and under real MPMC
// contention (the ceiling assertion sampled from every producer iteration),
// plus the liveness floor (a drained queue at the smallest legal ceiling
// admits again, even with every thread's recycle list and inbox full) and
// the sharded-over-bounded composition. Ceilings are stated as the floor
// plus a number of nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "scale/sharded_queue.hpp"
#include "storage/bounded_wf_queue.hpp"

namespace kpq {
namespace {

using bq = bounded_wf_queue<std::uint64_t>;
using inner_q = bq::inner_type;

constexpr std::size_t kNode = sizeof(inner_q::node_type);

constexpr std::size_t kCap = bq::storage_type::cache_cap;

/// The smallest legal ceiling for `n` threads: the construction footprint
/// and scan threshold, read off a throwaway instance, plus one node of
/// headroom per thread and the nodes each thread may park in its recycle
/// list, its inbox (only when another thread can fill it) and its retired
/// list. Checked against the queue's own floor_bytes().
std::size_t floor_for(std::uint32_t n) {
  bounded_config big{.max_bytes = std::size_t{1} << 24};
  bq probe(n, big);
  const std::size_t lists = n > 1 ? 2 : 1;
  const std::size_t floor =
      static_cast<std::size_t>(probe.live_bytes()) + n * kNode +
      n * (lists * kCap + probe.inner().reclaimer().scan_threshold()) * kNode;
  EXPECT_EQ(probe.floor_bytes(), floor);
  return floor;
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

TEST(BoundedReject, DrainedQueueAtTheFloorAdmitsAgain) {
  // The smallest legal ceiling: fill until the queue refuses, then drain
  // everything from a second thread that then exits. The nodes the drain
  // leaves parked in its recycle cache and retired list fit under the
  // floor, so the drained queue must admit again.
  constexpr std::uint32_t n = 2;
  bq q(n, {.max_bytes = floor_for(n), .policy = full_policy::reject});
  std::uint64_t filled = 0;
  while (q.try_enqueue(filled, 0)) ++filled;
  ASSERT_GT(filled, 0u);

  std::uint64_t drained = 0;
  std::thread consumer([&] {
    while (q.dequeue(1).has_value()) ++drained;
  });
  consumer.join();
  EXPECT_EQ(drained, filled);
  ASSERT_TRUE(q.try_enqueue(filled, 0))
      << "no room after a full drain at the floor";
  EXPECT_EQ(q.stats().admitted, filled + 1);
}

TEST(BoundedReject, FullListsAndInboxesAtTheFloorStillAdmit) {
  // The most a drain can park: both threads fill, so each has run dry and
  // wants a batch; then each dequeues half, so each list fills, moves into
  // the other thread's inbox and fills again. With every list and inbox
  // full (and the rest of the retirements pending or freed), the drained
  // queue at the floor must still admit on either thread.
  constexpr std::uint32_t n = 2;
  bq q(n, {.max_bytes = floor_for(n), .policy = full_policy::reject});
  std::uint64_t filled = 0;
  while (q.try_enqueue(filled, static_cast<std::uint32_t>(filled % 2))) {
    ++filled;
  }
  ASSERT_GT(filled, 4 * kCap) << "too few nodes to fill two lists each";

  std::uint64_t drained = 0;
  for (std::uint32_t tid : {0u, 1u}) {
    for (std::uint64_t i = 0; i < filled / 2; ++i) {
      ASSERT_TRUE(q.dequeue(tid).has_value());
      ++drained;
    }
  }
  while (q.dequeue(1).has_value()) ++drained;
  EXPECT_EQ(drained, filled);
  ASSERT_EQ(q.storage().cached(0), 2 * kCap) << "list or inbox not full";
  ASSERT_EQ(q.storage().cached(1), 2 * kCap) << "list or inbox not full";

  EXPECT_TRUE(q.try_enqueue(filled, 0)) << "no room at the floor";
  EXPECT_TRUE(q.try_enqueue(filled + 1, 1)) << "no room at the floor";
  EXPECT_EQ(q.stats().admitted, filled + 2);
}

TEST(BoundedReject, RefusalLeavesContentsAndBytesUnchanged) {
  // A refusal is one counter read: it allocates nothing and touches no
  // element already admitted.
  constexpr std::uint32_t n = 1;
  bq q(n, {.max_bytes = ceiling_for(n, 64), .policy = full_policy::reject});
  std::uint64_t filled = 0;
  while (q.try_enqueue(filled, 0)) ++filled;
  ASSERT_GT(filled, 0u);
  const std::int64_t live = q.live_bytes();
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_FALSE(q.try_enqueue(1'000'000 + i, 0));
  }
  EXPECT_EQ(q.live_bytes(), live);
  EXPECT_EQ(q.stats().rejected, 11u);
  EXPECT_EQ(q.stats().admitted, filled);
  EXPECT_EQ(q.unsafe_size(), filled);
  for (std::uint64_t i = 0; i < filled; ++i) {
    auto v = q.dequeue(0);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(0).has_value());
}

TEST(BoundedReject, PlainEnqueueDropsNewcomersAtTheCeiling) {
  // enqueue() is the mpmc_queue spelling of try_enqueue: same policy, the
  // result discarded. With nobody draining, reject keeps the oldest prefix.
  constexpr std::uint32_t n = 1;
  bounded_config cfg{.max_bytes = ceiling_for(n, 64),
                     .policy = full_policy::reject};
  bq q(n, cfg);
  constexpr std::uint64_t kValues = 5000;
  for (std::uint64_t i = 0; i < kValues; ++i) {
    q.enqueue(i, 0);
    ASSERT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
  }
  const auto st = q.stats();
  EXPECT_GT(st.rejected, 0u);
  EXPECT_EQ(st.admitted + st.rejected, kValues);
  EXPECT_EQ(st.overwritten, 0u);
  for (std::uint64_t i = 0; i < st.admitted; ++i) {
    auto v = q.dequeue(0);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(0).has_value());
}

TEST(BoundedReject, EveryAdmittedElementIsDequeuedExactlyOnce) {
  // Producers pressing on the ceiling against concurrent consumers: a
  // refusal loses nothing that was admitted and duplicates nothing, and
  // each consumer sees each producer's elements in production order.
  constexpr std::uint32_t kProducers = 2, kConsumers = 2;
  constexpr std::uint32_t n = kProducers + kConsumers;
  bq q(n, {.max_bytes = ceiling_for(n, 128), .policy = full_policy::reject});
  constexpr std::uint64_t kPerProducer = 5000;

  std::vector<std::vector<std::uint64_t>> admitted(kProducers);
  std::vector<std::vector<std::uint64_t>> consumed(kConsumers + 1);
  std::atomic<std::uint32_t> producers_done{0};
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = p * kPerProducer + i;
        if (q.try_enqueue(v, p)) admitted[p].push_back(v);
      }
      producers_done.fetch_add(1);
    });
  }
  for (std::uint32_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      const std::uint32_t tid = kProducers + c;
      while (producers_done.load() < kProducers) {
        if (auto v = q.dequeue(tid)) consumed[c].push_back(*v);
      }
    });
  }
  for (auto& t : threads) t.join();
  while (auto v = q.dequeue(0)) consumed[kConsumers].push_back(*v);

  for (const auto& seen : consumed) {
    std::vector<std::uint64_t> last(kProducers, 0);
    std::vector<bool> any(kProducers, false);
    for (std::uint64_t v : seen) {
      const auto p = static_cast<std::size_t>(v / kPerProducer);
      ASSERT_TRUE(!any[p] || v > last[p]) << "per-producer order broken";
      any[p] = true;
      last[p] = v;
    }
  }
  std::vector<std::uint64_t> in, out;
  for (const auto& a : admitted) in.insert(in.end(), a.begin(), a.end());
  for (const auto& c : consumed) out.insert(out.end(), c.begin(), c.end());
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, in);
  EXPECT_EQ(q.stats().admitted, in.size());
  EXPECT_EQ(q.stats().admitted + q.stats().rejected,
            kProducers * kPerProducer);
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

TEST(BoundedOverwrite, AccountsForEveryElementUnderMpmcContention) {
  // Producers dropping from the head while a consumer drains: every
  // admitted element is either consumed, overwritten or still queued —
  // exactly one of the three — and the ceiling holds throughout.
  constexpr std::uint32_t kProducers = 2;
  constexpr std::uint32_t n = kProducers + 1;
  bounded_config cfg{.max_bytes = ceiling_for(n, 64),
                     .policy = full_policy::overwrite_oldest};
  bq q(n, cfg);
  constexpr std::uint64_t kPerProducer = 5000;

  std::atomic<std::uint64_t> enq_ok{0}, violations{0};
  std::atomic<bool> producing{true};
  std::vector<std::uint64_t> consumed;
  std::vector<std::thread> prod;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    prod.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        if (q.try_enqueue(p * kPerProducer + i, p)) enq_ok.fetch_add(1);
        if (q.live_bytes() > static_cast<std::int64_t>(cfg.max_bytes)) {
          violations.fetch_add(1);
        }
      }
    });
  }
  std::thread cons([&] {
    while (producing.load(std::memory_order_relaxed)) {
      if (auto v = q.dequeue(kProducers)) consumed.push_back(*v);
    }
  });
  for (auto& t : prod) t.join();
  producing.store(false);
  cons.join();
  while (auto v = q.dequeue(0)) consumed.push_back(*v);

  EXPECT_EQ(violations.load(), 0u) << "live bytes exceeded the ceiling";
  const auto st = q.stats();
  EXPECT_EQ(st.admitted, enq_ok.load());
  EXPECT_EQ(st.admitted + st.rejected, kProducers * kPerProducer);
  EXPECT_EQ(st.admitted, consumed.size() + st.overwritten);
  std::sort(consumed.begin(), consumed.end());
  EXPECT_EQ(std::adjacent_find(consumed.begin(), consumed.end()),
            consumed.end())
      << "an element came out twice";
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

TEST(BoundedSharded, ComposesFromOneArgumentList) {
  constexpr std::uint32_t kShards = 2, n = 2;
  bounded_config cfg{.max_bytes = std::size_t{1} << 22,
                     .policy = full_policy::reject};
  sharded_queue<bq> q(kShards, n, cfg);  // every shard is bq(n, cfg)

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
