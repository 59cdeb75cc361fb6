// Exhaustive schedule exploration of the KP queue that ships.
//
// The paper's §3.1 scheme splits each operation into small atomic steps so
// helpers can share work. OS-thread stress tests only sample interleavings
// of those steps; this test enumerates them on the real wf_queue, run by
// the baton scheduler (tests/support/baton.hpp): one scheduling point
// before every shared access, DFS over every schedule with at most three
// preemptions (two with three threads), hazard pointers scanning on every
// retirement, and every reclaimed node freed (testing::freeing_storage), so
// a read of a reclaimed node is a use-after-free under AddressSanitizer.
// After each schedule the results plus the final queue content are checked
// with the exact brute-force linearizability checker (op intervals = baton
// clock at invocation and response).
//
// Every scenario runs on base WF (help_all + scan_max_phase) and opt WF
// (help_one + fetch_add_phase). A failure prints its replayable schedule.
// The BatonExplorer suite at the end checks the explorer itself: the DFS
// enumerates exactly the bounded schedules, and a recorded schedule
// replays to the same trace.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/wf_queue_fps.hpp"
#include "support/baton.hpp"
#include "support/fault_storage.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

using testing::baton;
using testing::baton_options;
using testing::chooser;
using testing::eager_hp_domain;
using testing::program;

using testing::freeing_storage;

using base_queue =
    wf_queue<std::uint64_t, help_all, scan_max_phase, eager_hp_domain,
             baton_options, freeing_storage<std::uint64_t>>;
using opt_queue =
    wf_queue<std::uint64_t, help_one, fetch_add_phase, eager_hp_domain,
             baton_options, freeing_storage<std::uint64_t>>;

/// Explores every schedule of `progs` (worker w runs as tid w on a queue
/// of 4 threads; tid 3 prefills and drains) and returns the number of
/// completions the workers won for another thread's operation, summed over
/// schedules.
template <typename Q>
std::uint64_t explore_on(const char* name, const std::vector<program>& progs,
                         std::uint64_t prefill) {
  baton b(static_cast<std::uint32_t>(progs.size()));
  std::uint64_t helped = 0;
  const testing::explore_report r = testing::explore(
      b, testing::preemption_bound(progs.size()), [&](chooser& c) {
        Q q(4);
        std::string err = testing::run_checked(b, c, q, progs, prefill, 3);
        for (std::uint32_t w = 0; w < progs.size(); ++w) {
          helped += q.counters(w).helped_enq_completions +
                    q.counters(w).helped_deq_completions;
        }
        return err;
      });
  EXPECT_EQ(r.failure, "") << name;
  std::printf("[ explored ] %s: %llu schedules, %llu helped completions\n",
              name, static_cast<unsigned long long>(r.schedules),
              static_cast<unsigned long long>(helped));
  return helped;
}

/// Both paper configurations; each must reach helping somewhere, unless
/// `opt_helps` says opt cannot.
void explore_all(const std::vector<program>& progs, std::uint64_t prefill,
                 bool opt_helps = true) {
  EXPECT_GT(explore_on<base_queue>("base", progs, prefill), 0u);
  const std::uint64_t opt = explore_on<opt_queue>("opt", progs, prefill);
  if (opt_helps) {
    EXPECT_GT(opt, 0u);
  }
}

const testing::op_spec deq{false};
testing::op_spec enq(std::uint64_t v) { return {true, v}; }

// ------------------------------------------------------------------ tests

TEST(InterleaveExplorer, TwoConcurrentEnqueues) {
  explore_all({{enq(100)}, {enq(200)}}, /*prefill=*/0);
}

TEST(InterleaveExplorer, TwoConcurrentDequeues) {
  explore_all({{deq}, {deq}}, /*prefill=*/2);
}

TEST(InterleaveExplorer, TwoDequeuesOnOneElement) {
  // Exactly one must get the element, the other must observe empty — in
  // every interleaving.
  explore_all({{deq}, {deq}}, /*prefill=*/1);
}

TEST(InterleaveExplorer, EnqueueRacesDequeueOnEmptyQueue) {
  explore_all({{enq(100)}, {deq}}, /*prefill=*/0);
}

TEST(InterleaveExplorer, EnqueueRacesDequeueOnNonEmptyQueue) {
  // The two ends never meet: the dequeue finds head != tail, and opt's
  // help_one only records a peer at its first look, so opt never helps.
  explore_all({{enq(100)}, {deq}}, /*prefill=*/1, /*opt_helps=*/false);
}

TEST(InterleaveExplorer, ThreeWayMixedRace) {
  explore_all({{enq(100)}, {deq}, {enq(200)}}, /*prefill=*/1);
}

TEST(InterleaveExplorer, ThreeDequeuesTwoElements) {
  // Two must succeed with FIFO values, one must observe empty — in every
  // interleaving of the claim/finish steps.
  explore_all({{deq}, {deq}, {deq}}, /*prefill=*/2);
}

TEST(InterleaveExplorer, DuelingEnqueuesThenDuelingDequeues) {
  explore_all({{enq(100)}, {enq(200)}, {deq}}, /*prefill=*/0);
}

// ------------------------------------------------- the explorer itself

TEST(BatonExplorer, DfsRunsEveryBoundedScheduleOnce) {
  // Two workers of k scheduling points each have k + 1 segments apiece; an
  // execution is an order of the 2k + 2 segments, and a preemption is a
  // switch away from a worker with segments left. Count the orders within
  // each bound by brute force and compare with what the DFS ran.
  constexpr std::uint32_t k = 4;
  for (std::uint32_t bound = 0; bound <= 3; ++bound) {
    std::uint64_t expected = 0;
    for (std::uint32_t m = 0; m < (1u << (2 * k + 2)); ++m) {
      if (std::popcount(m) != static_cast<int>(k + 1)) continue;
      std::uint32_t left[2] = {k + 1, k + 1};
      std::uint32_t preemptions = 0;
      for (std::uint32_t i = 0; i < 2 * k + 2; ++i) {
        const std::uint32_t w = (m >> i) & 1;
        if (i > 0) {
          const std::uint32_t prev = (m >> (i - 1)) & 1;
          if (prev != w && left[prev] > 0) ++preemptions;
        }
        --left[w];
      }
      if (preemptions <= bound) ++expected;
    }
    baton b(2);
    std::set<std::vector<std::uint32_t>> seen;  // segment orders run
    const testing::explore_report r =
        testing::explore(b, bound, [&](chooser& c) -> std::string {
          std::vector<std::uint32_t> order;
          b.run(
              [&](std::uint32_t w) {
                order.push_back(w);
                for (std::uint32_t i = 0; i < k; ++i) {
                  baton::sched_point(w, sched_site::load);
                  order.push_back(w);
                }
              },
              c);
          return seen.insert(order).second ? "" : "schedule ran twice";
        });
    EXPECT_EQ(r.failure, "") << "bound " << bound;
    EXPECT_EQ(r.schedules, expected) << "bound " << bound;
  }
}

struct replay_fps_options : fps_options {
  using hooks = testing::baton::hook;
  using fast_path = ms_fast_path<1>;
};
using fps_queue = wf_queue_fps<std::uint64_t, eager_hp_domain,
                               replay_fps_options,
                               freeing_storage<std::uint64_t>>;

/// Records a random schedule of a mixed program, then replays its string
/// twice: the (worker, site) traces and the histories must match exactly,
/// or DFS replay would be unsound for this queue.
template <typename Q>
void expect_replay_deterministic(std::uint64_t seed) {
  baton b(3);
  std::vector<program> progs(3);
  for (std::uint32_t t = 0; t < 3; ++t) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      progs[t].push_back({(seed + t + i) % 3 != 0, 100 * t + i});
    }
  }
  auto once = [&](chooser& c) {
    Q q(3);
    return testing::run_programs(b, c, q, progs);
  };
  testing::random_chooser rc(seed);
  const std::vector<op_event> h0 = once(rc);
  const std::string schedule = b.schedule();
  const std::vector<testing::sched_step> trace = b.trace();
  ASSERT_FALSE(schedule.empty());
  for (int i = 0; i < 2; ++i) {
    testing::replay_chooser c(schedule);
    const std::vector<op_event> h = once(c);
    EXPECT_EQ(b.schedule(), schedule);
    EXPECT_TRUE(b.trace() == trace) << "replay " << i << " of \"" << schedule
                                    << "\" took another path";
    ASSERT_EQ(h.size(), h0.size());
    for (std::size_t e = 0; e < h.size(); ++e) {
      EXPECT_EQ(h[e].ok, h0[e].ok);
      EXPECT_EQ(h[e].value, h0[e].value);
      EXPECT_EQ(h[e].inv, h0[e].inv);
      EXPECT_EQ(h[e].res, h0[e].res);
    }
  }
}

TEST(BatonExplorer, ReplayIsDeterministic) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_replay_deterministic<opt_queue>(seed);
    expect_replay_deterministic<base_queue>(seed);
    expect_replay_deterministic<fps_queue>(seed);
  }
}

}  // namespace
}  // namespace kpq
