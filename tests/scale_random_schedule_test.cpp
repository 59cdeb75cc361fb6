// Randomized-schedule verification of the SHARDED front-end's contract:
// per-shard FIFO, no-loss/no-dup, and per-shard empty honesty, with 2–8
// shards.
//
// The real sharded_queue, and async_sharded's synchronous face (the same
// front-end over async_mpmc shards), run under the baton scheduler
// (tests/support/baton.hpp) with the affinity policy, over opt WF shards
// whose every shared access is a scheduling point; a uniformly random
// thread runs next at each one, so shard scans from different threads
// overlap arbitrarily — exactly the executions the relaxed cross-shard
// contract must survive. Each shard is wrapped in a recording shim that
// logs every inner operation with its own baton-clock window.
//
// Checking: the history is recorded PER SHARD (each sub-operation with its
// own window). Each shard's history plus its drain must pass the full FIFO
// checker — including C5 empty honesty, which here proves the scan's
// emptiness claim shard by shard: a sub-dequeue may return empty only if
// that shard really was empty at some instant of its window. Small runs are
// additionally cross-checked per shard by the exact linearizability
// checker. Global no-loss/no-dup is the sum of per-shard C3 plus the
// cross-shard count identity asserted at the end.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/workload.hpp"
#include "scale/sharded_queue.hpp"
#include "support/baton.hpp"
#include "support/sharded_faces.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq {
namespace {

using testing::baton;
using testing::program;

using inner_queue = wf_queue<std::uint64_t, help_one, fetch_add_phase,
                             testing::eager_hp_domain, testing::baton_options>;

/// One shard: the real inner queue, logging each operation on it.
class recorded_shard {
 public:
  using value_type = std::uint64_t;

  recorded_shard(std::uint32_t threads, baton& b, std::vector<op_event>& log)
      : q_(threads), b_(b), log_(log) {}

  void enqueue(value_type v, std::uint32_t tid) {
    const std::uint64_t inv = b_.stamp();
    q_.enqueue(v, tid);
    log_.push_back({op_kind::enq, true, tid, v, inv, b_.stamp()});
  }
  std::optional<value_type> dequeue(std::uint32_t tid) {
    const std::uint64_t inv = b_.stamp();
    std::optional<value_type> v = q_.dequeue(tid);
    log_.push_back(
        {op_kind::deq, v.has_value(), tid, v.value_or(0), inv, b_.stamp()});
    return v;
  }
  inner_queue& inner() noexcept { return q_; }

 private:
  inner_queue q_;
  baton& b_;
  std::vector<op_event>& log_;
};

struct outcome {
  check_result per_shard;
  std::vector<std::vector<op_event>> history;  // with drains appended
  std::uint64_t enqueued = 0, dequeued = 0, drained = 0;
};

template <typename Face>
outcome run_sharded_random(baton& b, std::uint64_t seed, std::uint32_t shards,
                           std::uint32_t ops_per_thread,
                           std::uint32_t enq_bias) {
  const std::uint32_t threads = b.workers();
  fast_rng rng(seed);
  std::vector<program> progs(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    for (std::uint32_t i = 0; i < ops_per_thread; ++i) {
      progs[t].push_back({rng.bernoulli(enq_bias, 100), encode_value(t, i)});
    }
  }

  outcome o;
  o.history.resize(shards);
  using front = testing::sharded_front<Face, recorded_shard>;
  front q(shards, [&](std::uint32_t s) {
    return std::make_unique<typename front::inner_type>(threads, b,
                                                        o.history[s]);
  });
  testing::random_chooser c(rng.next());
  for (const op_event& e : testing::run_programs(b, c, q, progs)) {
    if (e.kind == op_kind::enq) {
      ++o.enqueued;
    } else if (e.ok) {
      ++o.dequeued;
    }
  }

  // Per-shard verdicts; drains append to the histories so the exact
  // checker can consume them too.
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::vector<op_event> explored = o.history[s];
    const std::vector<std::uint64_t> drained =
        testing::drain(testing::inner_of(q.shard(s)).inner(), 0,
                       &o.history[s]);
    o.drained += drained.size();
    const check_result r = fifo_checker::check(explored, drained);
    if (!r.ok) {
      o.per_shard.fail("shard " + std::to_string(s) + ": " + r.to_string());
    }
  }
  if (!o.per_shard.ok) o.per_shard.fail("schedule \"" + b.schedule() + "\"");
  return o;
}

template <typename Face>
class ShardedRandomSchedule : public ::testing::Test {};
TYPED_TEST_SUITE(ShardedRandomSchedule, testing::sharded_faces,
                 testing::face_name);

TYPED_TEST(ShardedRandomSchedule, TwoShards) {
  baton b(4);
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    auto o = run_sharded_random<TypeParam>(b, seed, 2, /*ops=*/6, 60);
    ASSERT_TRUE(o.per_shard.ok) << "seed " << seed << ":\n"
                                << o.per_shard.to_string();
    ASSERT_EQ(o.enqueued, o.dequeued + o.drained) << "seed " << seed;
  }
}

TYPED_TEST(ShardedRandomSchedule, FourShardsWideFan) {
  baton b(8);
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    auto o = run_sharded_random<TypeParam>(b, seed, 4, 4, 55);
    ASSERT_TRUE(o.per_shard.ok) << "seed " << seed << ":\n"
                                << o.per_shard.to_string();
    ASSERT_EQ(o.enqueued, o.dequeued + o.drained) << "seed " << seed;
  }
}

TYPED_TEST(ShardedRandomSchedule, EightShardsDequeueHeavy) {
  // More shards than busy producers: scans regularly sweep several empty
  // shards, hammering the empty-honesty and steal paths.
  baton b(6);
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    auto o = run_sharded_random<TypeParam>(b, seed, 8, 5, 35);
    ASSERT_TRUE(o.per_shard.ok) << "seed " << seed << ":\n"
                                << o.per_shard.to_string();
    ASSERT_EQ(o.enqueued, o.dequeued + o.drained) << "seed " << seed;
  }
}

TYPED_TEST(ShardedRandomSchedule, SmallRunsCrossCheckedExactlyPerShard) {
  baton b(3);
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    auto o = run_sharded_random<TypeParam>(b, seed, 2, 2, 50);
    ASSERT_TRUE(o.per_shard.ok) << "seed " << seed << ":\n"
                                << o.per_shard.to_string();
    for (std::size_t s = 0; s < o.history.size(); ++s) {
      ASSERT_LE(o.history[s].size(), 20u);
      ASSERT_TRUE(lin_checker::is_linearizable(o.history[s]))
          << "exact checker rejected shard " << s << " of seed " << seed
          << ", schedule \"" << b.schedule() << "\"";
    }
  }
}

}  // namespace
}  // namespace kpq
