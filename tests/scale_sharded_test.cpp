// Tests for the sharded front-end: concept conformance, routing per
// policy, the work-stealing dequeue scan (and the order in which it visits
// shards), per-shard counters, memory accounting flow-through, and
// real-thread stress runs validated with the per-shard FIFO partition of
// the whole-run checker.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/workload.hpp"
#include "scale/sharded_queue.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

using inner_q = wf_queue_opt<std::uint64_t>;
using sharded_wf = sharded_queue<inner_q>;

static_assert(mpmc_queue<sharded_wf>);
static_assert(mpmc_queue_autotid<sharded_wf>);
static_assert(mpmc_queue<sharded_queue<ms_queue<std::uint64_t>>>);

TEST(ShardedQueue, AffinityRoutesProducerToHomeShard) {
  sharded_wf q(/*shards=*/4, /*max_threads=*/8);
  q.enqueue(1, /*tid=*/0);  // 0 % 4 == 0
  q.enqueue(2, /*tid=*/5);  // 5 % 4 == 1
  q.enqueue(3, /*tid=*/6);  // 6 % 4 == 2
  EXPECT_EQ(q.shard(0).unsafe_size(), 1u);
  EXPECT_EQ(q.shard(1).unsafe_size(), 1u);
  EXPECT_EQ(q.shard(2).unsafe_size(), 1u);
  EXPECT_EQ(q.shard(3).unsafe_size(), 0u);
  EXPECT_EQ(q.unsafe_size(), 3u);
}

TEST(ShardedQueue, PerShardFifoForOneProducer) {
  sharded_wf q(4, 4);
  for (std::uint64_t i = 0; i < 100; ++i) q.enqueue(i, 1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(i));
  }
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TEST(ShardedQueue, DequeueScanStealsFromPeerShards) {
  sharded_wf q(2, 4);
  q.enqueue(42, 0);  // lands on shard 0
  // tid 1's home is shard 1 (empty) — the scan must wrap and steal.
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(42));
  const shard_stats s0 = q.shard_counters_snapshot(0);
  EXPECT_EQ(s0.dequeued, 1u);
  EXPECT_EQ(s0.stolen, 1u);
  EXPECT_DOUBLE_EQ(s0.steal_rate(), 1.0);
  // Home-shard hits are not steals.
  q.enqueue(7, 0);
  EXPECT_EQ(q.dequeue(0), std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.shard_counters_snapshot(0).stolen, 1u);
}

TEST(ShardedQueue, EmptyScanVisitsEveryShardOnce) {
  sharded_wf q(8, 8);
  EXPECT_EQ(q.dequeue(3), std::nullopt);
  EXPECT_TRUE(q.empty_hint(3));
  EXPECT_EQ(q.shard_counters_snapshot(3).empty_scans, 1u);  // home of tid 3
  const shard_stats total = q.aggregate_counters();
  EXPECT_EQ(total.empty_scans, 1u);
  EXPECT_EQ(total.dequeued, 0u);
}

TEST(ShardedQueue, DepthCountersTrackLiveItems) {
  sharded_wf q(2, 2);
  for (std::uint64_t i = 0; i < 5; ++i) q.enqueue(i, 0);
  for (std::uint64_t i = 0; i < 3; ++i) q.enqueue(i, 1);
  (void)q.dequeue(0);
  (void)q.dequeue(0);
  EXPECT_EQ(q.shard_counters_snapshot(0).depth(), 3);
  EXPECT_EQ(q.shard_counters_snapshot(1).depth(), 3);
  EXPECT_EQ(q.aggregate_counters().depth(), 6);
  EXPECT_EQ(q.unsafe_size(), 6u);
}

TEST(ShardStats, DepthStealRateAndSum) {
  shard_stats s{.enqueued = 100, .dequeued = 80, .stolen = 20};
  EXPECT_EQ(s.depth(), 20);
  EXPECT_DOUBLE_EQ(s.steal_rate(), 0.25);
  EXPECT_EQ(shard_stats{}.steal_rate(), 0.0);  // nothing dequeued: no NaN
  s += shard_stats{.enqueued = 1, .dequeued = 20, .stolen = 5,
                   .empty_scans = 2};
  EXPECT_EQ(s.enqueued, 101u);
  EXPECT_EQ(s.dequeued, 100u);
  EXPECT_EQ(s.stolen, 25u);
  EXPECT_EQ(s.empty_scans, 2u);
  EXPECT_EQ(s.depth(), 1);
}

TEST(ShardedQueue, RoundRobinSpreadsEnqueuesEvenly) {
  sharded_queue<inner_q, round_robin_shards> q(4, 2);
  for (std::uint64_t i = 0; i < 8; ++i) q.enqueue(i, 0);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(q.shard(s).unsafe_size(), 2u) << "shard " << s;
  }
}

TEST(ShardedQueue, KeyHashKeepsEqualKeysTogether) {
  // Values sharing value_tid (the default key) must land on one shard even
  // when enqueued by different threads.
  sharded_queue<inner_q, key_hash_shards<>> q(4, 4);
  q.enqueue(encode_value(/*key tid=*/7, 0), /*tid=*/0);
  q.enqueue(encode_value(7, 1), 1);
  q.enqueue(encode_value(7, 2), 2);
  std::uint32_t nonempty = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    if (q.shard(s).unsafe_size() > 0) {
      ++nonempty;
      EXPECT_EQ(q.shard(s).unsafe_size(), 3u);
    }
  }
  EXPECT_EQ(nonempty, 1u);
  // ... and per-key FIFO holds through the front-end.
  EXPECT_EQ(value_seq(*q.dequeue(3)), 0u);
  EXPECT_EQ(value_seq(*q.dequeue(3)), 1u);
  EXPECT_EQ(value_seq(*q.dequeue(3)), 2u);
}

TEST(ShardedQueue, RunFromOneTidStaysOnItsHomeShardAndCounts) {
  sharded_wf q(4, 4);
  const std::vector<std::uint64_t> in{10, 11, 12, 13, 14, 15, 16, 17, 18, 19};
  for (std::uint64_t v : in) q.enqueue(v, /*tid=*/1);
  EXPECT_EQ(q.shard(1).unsafe_size(), 10u);  // every item on tid's shard
  EXPECT_EQ(q.shard_counters_snapshot(1).enqueued, 10u);
  EXPECT_EQ(q.aggregate_counters().enqueued, 10u);

  std::vector<std::uint64_t> out;
  while (auto v = q.dequeue(1)) out.push_back(*v);
  EXPECT_EQ(out, in);  // FIFO preserved inside the shard
  const shard_stats s1 = q.shard_counters_snapshot(1);
  EXPECT_EQ(s1.dequeued, 10u);
  EXPECT_EQ(s1.stolen, 0u);
  EXPECT_EQ(s1.empty_scans, 1u);  // the call that stopped the drain
}

TEST(ShardedQueue, DrainTakesHomeFirstThenStealsAcrossShards) {
  sharded_wf q(2, 4);
  q.enqueue(1, 0);  // shard 0
  q.enqueue(2, 0);
  q.enqueue(3, 1);  // shard 1
  q.enqueue(4, 1);
  std::vector<std::uint64_t> out;
  while (auto v = q.dequeue(0)) out.push_back(*v);  // home, then steals
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(q.shard_counters_snapshot(0).stolen, 0u);
  EXPECT_EQ(q.shard_counters_snapshot(1).stolen, 2u);
}

TEST(ShardedQueue, MemoryCountersFlowThroughToInnerQueues) {
  mem_counters mc;
  {
    sharded_wf q(4, 4, &mc);
    EXPECT_GT(mc.live_bytes(), 0);  // the shards' sentinels
    const std::int64_t baseline = mc.live_bytes();
    for (std::uint64_t i = 0; i < 64; ++i) q.enqueue(i, i % 4);
    EXPECT_GT(mc.live_bytes(), baseline);
  }
  EXPECT_EQ(mc.live_bytes(), 0);  // destruction returns every byte
  EXPECT_EQ(mc.live_objects(), 0);
}

// ------------------------------------------------------------ scan order

// Single-threaded inner queue that logs the id of every shard a dequeue
// call visits, so a test can read back the front-end's scan order.
struct probe_queue {
  using value_type = std::uint64_t;

  probe_queue(std::uint32_t id, std::vector<std::uint32_t>* visits)
      : id_(id), visits_(visits) {}

  void enqueue(value_type v, std::uint32_t /*tid*/) { items_.push_back(v); }
  std::optional<value_type> dequeue(std::uint32_t /*tid*/) {
    visits_->push_back(id_);
    if (items_.empty()) return std::nullopt;
    const value_type v = items_.front();
    items_.pop_front();
    return v;
  }
  std::size_t unsafe_size() const { return items_.size(); }

 private:
  std::uint32_t id_;
  std::vector<std::uint32_t>* visits_;
  std::deque<value_type> items_;
};
static_assert(mpmc_queue<probe_queue>);

template <typename Policy = affinity_shards>
using probed = sharded_queue<probe_queue, Policy>;

template <typename Policy = affinity_shards>
probed<Policy> make_probed(std::uint32_t shards, std::uint32_t max_threads,
                           std::vector<std::uint32_t>& visits) {
  return probed<Policy>(shards, max_threads, [&visits](std::uint32_t s) {
    return std::make_unique<probe_queue>(s, &visits);
  });
}

/// The documented scan: `home` first, then every other shard in index
/// order.
std::vector<std::uint32_t> scan_order(std::uint32_t shards,
                                      std::uint32_t home) {
  std::vector<std::uint32_t> order{home};
  for (std::uint32_t s = 0; s < shards; ++s) {
    if (s != home) order.push_back(s);
  }
  return order;
}

// Parameter: shard count. Thread ids run past the shard count so that
// homes wrap (tid % S) and every shard is some thread's home.
class ShardedScanOrder : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  std::uint32_t shards() const { return GetParam(); }
  std::uint32_t threads() const { return 2 * GetParam() + 1; }
};

TEST_P(ShardedScanOrder, EmptyDequeueVisitsHomeThenOthersInIndexOrder) {
  std::vector<std::uint32_t> visits;
  auto q = make_probed(shards(), threads(), visits);
  std::vector<std::uint64_t> homes(shards(), 0);
  for (std::uint32_t tid = 0; tid < threads(); ++tid) {
    visits.clear();
    EXPECT_EQ(q.dequeue(tid), std::nullopt);
    EXPECT_EQ(visits, scan_order(shards(), tid % shards())) << "tid " << tid;
    ++homes[tid % shards()];
  }
  // An empty scan is charged to the scanning thread's home shard.
  for (std::uint32_t s = 0; s < shards(); ++s) {
    EXPECT_EQ(q.shard_counters_snapshot(s).empty_scans, homes[s])
        << "shard " << s;
  }
}

TEST_P(ShardedScanOrder, EveryEmptyDequeueRescansAndIsCounted) {
  std::vector<std::uint32_t> visits;
  auto q = make_probed(shards(), threads(), visits);
  for (std::uint32_t tid = 0; tid < threads(); ++tid) {
    visits.clear();
    EXPECT_EQ(q.dequeue(tid), std::nullopt);
    EXPECT_EQ(q.dequeue(tid), std::nullopt);
    // No memory of the last empty scan: the second call walks it again.
    std::vector<std::uint32_t> twice = scan_order(shards(), tid % shards());
    twice.insert(twice.end(), twice.begin(), twice.end());
    EXPECT_EQ(visits, twice) << "tid " << tid;
  }
  EXPECT_EQ(q.aggregate_counters().empty_scans, 2u * threads());
  EXPECT_EQ(q.aggregate_counters().dequeued, 0u);
}

TEST_P(ShardedScanOrder, DequeueStopsAtTheFirstShardThatYieldsAnItem) {
  for (std::uint32_t tid = 0; tid < threads(); ++tid) {
    const std::uint32_t home = tid % shards();
    const std::vector<std::uint32_t> order = scan_order(shards(), home);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::uint32_t target = order[pos];
      std::vector<std::uint32_t> visits;
      auto q = make_probed(shards(), threads(), visits);
      q.enqueue(100 + target, /*tid=*/target);  // affinity: lands on target
      ASSERT_EQ(q.shard(target).unsafe_size(), 1u);
      visits.clear();
      EXPECT_EQ(q.dequeue(tid), std::optional<std::uint64_t>(100 + target));
      const std::vector<std::uint32_t> prefix(order.begin(),
                                              order.begin() + pos + 1);
      EXPECT_EQ(visits, prefix) << "tid " << tid << ", item on " << target;
      const shard_stats st = q.shard_counters_snapshot(target);
      EXPECT_EQ(st.dequeued, 1u);
      EXPECT_EQ(st.stolen, target == home ? 0u : 1u);
      EXPECT_EQ(q.aggregate_counters().empty_scans, 0u);
    }
  }
}

TEST_P(ShardedScanOrder, DrainEmptiesHomeThenStealsFromTheNextShard) {
  for (std::uint32_t tid = 0; tid < threads(); ++tid) {
    const std::uint32_t home = tid % shards();
    const std::vector<std::uint32_t> order = scan_order(shards(), home);
    std::vector<std::uint32_t> visits;
    auto q = make_probed(shards(), threads(), visits);
    for (std::uint32_t s = 0; s < shards(); ++s) {
      for (std::uint64_t i = 0; i < 3; ++i) q.enqueue(10 * s + i, s);
    }
    visits.clear();
    // Four dequeues, one more than home holds: three hit home, the fourth
    // finds home empty and takes the first item of the next shard in scan
    // order, visiting nothing after it.
    std::vector<std::uint64_t> out;
    for (int call = 0; call < 4; ++call) {
      if (auto v = q.dequeue(tid)) out.push_back(*v);
    }
    std::vector<std::uint64_t> expect_out{10u * home, 10u * home + 1,
                                          10u * home + 2};
    std::vector<std::uint32_t> expect_visits{home, home, home, home};
    if (shards() > 1) {
      expect_out.push_back(10u * order[1]);
      expect_visits.push_back(order[1]);
    }
    EXPECT_EQ(out, expect_out) << "tid " << tid;
    EXPECT_EQ(visits, expect_visits) << "tid " << tid;
    EXPECT_EQ(q.shard_counters_snapshot(home).stolen, 0u);
    if (shards() > 1) {
      EXPECT_EQ(q.shard_counters_snapshot(order[1]).stolen, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedScanOrder,
                         ::testing::Values(1u, 2u, 3u, 5u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "S" + std::to_string(i.param);
                         });

// Policy whose shard numbers exceed the shard count: enqueues route by
// value, homes by 5 * tid + 2. The front-end reduces both modulo S.
struct unreduced_shards {
  explicit unreduced_shards(std::uint32_t) {}
  std::uint32_t enqueue_shard(std::uint32_t, std::uint64_t v) const noexcept {
    return static_cast<std::uint32_t>(v);
  }
  std::uint32_t home_shard(std::uint32_t tid) const noexcept {
    return 5 * tid + 2;
  }
};

TEST(ShardedRouting, EnqueueAndHomeShardsAreReducedModuloShardCount) {
  std::vector<std::uint32_t> visits;
  auto q = make_probed<unreduced_shards>(3, 4, visits);
  q.enqueue(7, /*tid=*/0);   // 7 % 3 == 1
  q.enqueue(9, /*tid=*/0);   // 9 % 3 == 0
  q.enqueue(11, /*tid=*/0);  // 11 % 3 == 2
  EXPECT_EQ(q.shard(0).unsafe_size(), 1u);
  EXPECT_EQ(q.shard(1).unsafe_size(), 1u);
  EXPECT_EQ(q.shard(2).unsafe_size(), 1u);
  EXPECT_EQ(q.shard_counters_snapshot(1).enqueued, 1u);

  // tid 1: (5 + 2) % 3 == 1 is home, so its scan is 1, 0, 2.
  visits.clear();
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(7));
  EXPECT_EQ(visits, (std::vector<std::uint32_t>{1}));
  visits.clear();
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(9));
  EXPECT_EQ(visits, (std::vector<std::uint32_t>{1, 0}));
  visits.clear();
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(11));
  EXPECT_EQ(visits, (std::vector<std::uint32_t>{1, 0, 2}));
  EXPECT_EQ(q.shard_counters_snapshot(0).stolen, 1u);
  EXPECT_EQ(q.shard_counters_snapshot(2).stolen, 1u);
}

TEST(ShardedRouting, ItemsWithOneRouteShareAShardInEnqueueOrder) {
  std::vector<std::uint32_t> visits;
  auto q = make_probed<unreduced_shards>(3, 4, visits);
  // Each item routes on its own value; 7, 10 and 13 all reduce to 1.
  const std::vector<std::uint64_t> run{7, 10, 13};
  for (std::uint64_t v : run) q.enqueue(v, /*tid=*/0);
  q.enqueue(8, /*tid=*/0);  // 8 % 3 == 2: the next item routes away
  EXPECT_EQ(q.shard(0).unsafe_size(), 0u);
  EXPECT_EQ(q.shard(1).unsafe_size(), 3u);
  EXPECT_EQ(q.shard(2).unsafe_size(), 1u);
  EXPECT_EQ(q.shard_counters_snapshot(1).enqueued, 3u);
  EXPECT_EQ(q.shard_counters_snapshot(2).enqueued, 1u);
  // tid 1's home is 1: the run comes back in order without a steal.
  visits.clear();
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < run.size(); ++i) out.push_back(*q.dequeue(1));
  EXPECT_EQ(out, run);
  EXPECT_EQ(visits, (std::vector<std::uint32_t>{1, 1, 1}));
  EXPECT_EQ(q.shard_counters_snapshot(1).stolen, 0u);
}

// Real-thread stress: per-shard FIFO and conservation. The affinity policy
// maps value_tid(v) % S to the shard a value lives on, so the recorded
// history can be partitioned per shard and each partition checked against
// full FIFO semantics; empty dequeues are checked against EVERY shard
// (an empty scan is only honest if each shard was empty when visited).
template <typename Inner = inner_q>
void sharded_stress(std::uint32_t shards, std::uint32_t threads,
                    std::uint64_t pairs) {
  sharded_queue<Inner> q(shards, threads);
  history_recorder rec(threads);
  spin_barrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      fast_rng rng = thread_stream(0xC0FFEE, t);
      barrier.arrive_and_wait();
      std::uint64_t seq = 0;
      for (std::uint64_t i = 0; i < pairs; ++i) {
        {
          auto s = rec.begin(t, op_kind::enq, encode_value(t, seq));
          q.enqueue(encode_value(t, seq), t);
          s.commit();
          ++seq;
        }
        if (rng.bernoulli(3, 4)) {  // deq 75%: leave a drain remainder
          auto s = rec.begin(t, op_kind::deq);
          auto v = q.dequeue(t);
          if (v) {
            s.set_value(*v);
          } else {
            s.set_empty();
          }
          s.commit();
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Partition history and drain per shard; empty deqs go to all shards.
  std::vector<std::vector<op_event>> by_shard(shards);
  for (const op_event& e : rec.collect()) {
    if (e.kind == op_kind::deq && !e.ok) {
      for (auto& h : by_shard) h.push_back(e);
    } else {
      by_shard[value_tid(e.value) % shards].push_back(e);
    }
  }
  std::uint64_t drained_total = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::vector<std::uint64_t> drained;
    while (auto v = q.shard(s).dequeue(0)) drained.push_back(*v);
    drained_total += drained.size();
    auto r = fifo_checker::check(by_shard[s], drained);
    ASSERT_TRUE(r.ok) << "shard " << s << "/" << shards << ":\n"
                      << r.to_string();
  }
  const shard_stats total = q.aggregate_counters();
  EXPECT_EQ(total.enqueued, static_cast<std::uint64_t>(threads) * pairs);
  EXPECT_EQ(total.enqueued, total.dequeued + drained_total);
}

TEST(ShardedQueueStress, TwoShardsFourThreads) { sharded_stress(2, 4, 2000); }
TEST(ShardedQueueStress, FourShardsEightThreads) {
  sharded_stress(4, 8, 1200);
}
TEST(ShardedQueueStress, EightShardsSixThreads) {
  sharded_stress(8, 6, 1200);
}
// Shards over the fast-path/slow-path queue (constant fast-path budget).
TEST(ShardedQueueStress, FpsShardsFourThreads) {
  sharded_stress<wf_queue_fps<std::uint64_t>>(2, 4, 2000);
}

}  // namespace
}  // namespace kpq
