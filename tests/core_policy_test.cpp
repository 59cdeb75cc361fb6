// Isolated unit tests for the core policy objects: phase assignment
// (doorway property) and helping candidate selection.
// The help policies are exercised against a mock queue that records which
// entries they inspect, so candidate-selection logic is pinned independently
// of queue behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/help_policy.hpp"
#include "core/phase_policy.hpp"
#include "core/wf_queue.hpp"
#include "harness/mem_tracker.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq {
namespace {

// ---------------------------------------------------------------- mock queue

struct mock_guard {};

struct mock_queue {
  std::uint32_t n;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> helped;  // (helped, by)

  std::uint32_t max_threads() const { return n; }
  void help_if_needed(std::uint32_t i, std::int64_t /*phase*/, mock_guard&,
                      std::uint32_t my) {
    helped.emplace_back(i, my);
  }
  std::int64_t help_if_seen(std::uint32_t i, std::int64_t /*phase*/,
                            std::int64_t /*seen*/, mock_guard&,
                            std::uint32_t my) {
    helped.emplace_back(i, my);
    return no_phase;  // nothing pending: help_one advances every run
  }
};

TEST(HelpAll, VisitsEveryEntryInOrder) {
  mock_queue q{4, {}};
  mock_guard g;
  help_all policy(4);
  policy.run(q, 2, 10, g);
  ASSERT_EQ(q.helped.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.helped[i].first, i);
    EXPECT_EQ(q.helped[i].second, 2u);
  }
}

TEST(HelpOne, CyclesThroughCandidatesAndAlwaysHelpsSelf) {
  mock_queue q{3, {}};
  mock_guard g;
  help_one policy(3);
  // Thread 0's cursor starts at 0; each run helps (candidate if != self)
  // then self. Expected candidate sequence: 0(skip, ==self), 1, 2, 0(skip)...
  policy.run(q, 0, 1, g);  // cursor 0 == self: only self helped
  policy.run(q, 0, 2, g);  // candidate 1, then self
  policy.run(q, 0, 3, g);  // candidate 2, then self
  policy.run(q, 0, 4, g);  // cursor wrapped to 0 == self again
  std::vector<std::pair<std::uint32_t, std::uint32_t>> expected = {
      {0, 0}, {1, 0}, {0, 0}, {2, 0}, {0, 0}, {0, 0}};
  EXPECT_EQ(q.helped, expected);
}

TEST(HelpOne, EveryPeerIsReachedWithinNRounds) {
  constexpr std::uint32_t n = 5;
  mock_queue q{n, {}};
  mock_guard g;
  help_one policy(n);
  for (std::uint32_t round = 0; round < n; ++round) policy.run(q, 1, 1, g);
  std::set<std::uint32_t> candidates;
  for (auto [helped, by] : q.helped) candidates.insert(helped);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(candidates.count(i)) << "peer " << i << " never considered";
  }
}

// help_one's second look against a queue whose slots carry pending
// operations. `pending[i]` is slot i's pending phase (no_phase: idle); a
// probe applies the real queue's rule, and helping completes the operation.
struct staged_queue {
  std::uint32_t n;
  std::vector<std::int64_t> pending;
  std::vector<std::uint32_t> probed;  // every candidate probed, in order
  std::vector<std::uint32_t> helped;  // peers helped by a probe, in order

  std::uint32_t max_threads() const { return n; }
  void help_if_needed(std::uint32_t i, std::int64_t phase, mock_guard&,
                      std::uint32_t /*my*/) {
    if (pending[i] != no_phase && pending[i] <= phase) pending[i] = no_phase;
  }
  std::int64_t help_if_seen(std::uint32_t i, std::int64_t phase,
                            std::int64_t seen, mock_guard&,
                            std::uint32_t /*my*/) {
    probed.push_back(i);
    const std::int64_t p = pending[i];
    if (p == no_phase) return no_phase;
    if (p != seen || p > phase) return p;
    helped.push_back(i);
    pending[i] = no_phase;
    return no_phase;
  }
};

TEST(HelpOneSecondLook, PendingOperationIsNotHelpedAtTheFirstLook) {
  staged_queue q{3, {no_phase, 5, no_phase}, {}, {}};
  mock_guard g;
  help_one policy(3);
  policy.run(q, 0, 10, g);  // cursor 0 == self: advance to 1
  policy.run(q, 0, 11, g);  // first look at slot 1: record phase 5, stay
  EXPECT_TRUE(q.helped.empty());
  EXPECT_EQ(q.pending[1], 5) << "first look must not help";
  EXPECT_EQ(q.probed, (std::vector<std::uint32_t>{1}));
}

TEST(HelpOneSecondLook, SamePhaseIsHelpedAtTheSecondLook) {
  staged_queue q{3, {no_phase, 5, no_phase}, {}, {}};
  mock_guard g;
  help_one policy(3);
  policy.run(q, 0, 10, g);
  policy.run(q, 0, 11, g);  // first look
  policy.run(q, 0, 12, g);  // second look: still pending with phase 5
  EXPECT_EQ(q.helped, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(q.pending[1], no_phase);
  policy.run(q, 0, 13, g);  // the cursor moved on to slot 2
  EXPECT_EQ(q.probed, (std::vector<std::uint32_t>{1, 1, 2}));
}

TEST(HelpOneSecondLook, ChangedPhaseIsNotHelpedAndTheCursorMovesOn) {
  staged_queue q{3, {no_phase, 5, no_phase}, {}, {}};
  mock_guard g;
  help_one policy(3);
  policy.run(q, 0, 10, g);
  policy.run(q, 0, 11, g);  // first look: phase 5
  q.pending[1] = 7;         // owner finished and started a new operation
  policy.run(q, 0, 12, g);  // second look: phase changed, no help
  EXPECT_TRUE(q.helped.empty());
  EXPECT_EQ(q.pending[1], 7);
  policy.run(q, 0, 13, g);  // advanced: slot 2, not a fresh look at slot 1
  EXPECT_EQ(q.probed, (std::vector<std::uint32_t>{1, 1, 2}));
}

TEST(HelpOneSecondLook, EveryPeerIsConsideredWithin2NRuns) {
  constexpr std::uint32_t n = 5;
  for (std::uint32_t me = 0; me < n; ++me) {
    // Worst case for coverage: every peer always has an operation pending,
    // so the cursor pauses on every peer slot.
    staged_queue q{n, std::vector<std::int64_t>(n, 3), {}, {}};
    q.pending[me] = no_phase;
    mock_guard g;
    help_one policy(n);
    for (std::uint32_t round = 0; round < 2 * n; ++round) {
      policy.run(q, me, 100 + round, g);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (i != me && q.pending[i] == no_phase) q.pending[i] = 3;
      }
    }
    std::set<std::uint32_t> helped(q.helped.begin(), q.helped.end());
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i == me) continue;
      EXPECT_TRUE(helped.count(i)) << "peer " << i << " not helped by " << me;
    }
  }
}

TEST(HelpOneSecondLook, ChangingPhasesStillVisitEveryPeerWithin2NRuns) {
  constexpr std::uint32_t n = 4;
  staged_queue q{n, std::vector<std::int64_t>(n, no_phase), {}, {}};
  mock_guard g;
  help_one policy(n);
  // Peers finish between any two looks and re-announce with a new phase:
  // no second look matches, but the cursor still never stalls.
  std::int64_t next = 0;
  for (std::uint32_t round = 0; round < 2 * n; ++round) {
    for (std::uint32_t i = 1; i < n; ++i) q.pending[i] = next++;
    policy.run(q, 0, 1000, g);
  }
  EXPECT_TRUE(q.helped.empty());
  std::set<std::uint32_t> probed(q.probed.begin(), q.probed.end());
  EXPECT_EQ(probed, (std::set<std::uint32_t>{1, 2, 3}));
}

// ------------------------------------------------------------ phase policies

template <typename P>
class PhasePolicyTest : public ::testing::Test {};

using PhaseTypes = ::testing::Types<fetch_add_phase>;
TYPED_TEST_SUITE(PhasePolicyTest, PhaseTypes);

TYPED_TEST(PhasePolicyTest, SequentialPhasesAreNonDecreasingAndFresh) {
  // The doorway property needs: a phase chosen after another operation
  // *completed* its choice is >= that phase.
  wf_queue_base<std::uint64_t> dummy(1);  // unused by counter policies
  TypeParam p(4);
  mock_guard g;
  std::int64_t prev = -1;
  for (int i = 0; i < 100; ++i) {
    std::int64_t ph = p.next_phase(dummy, g, 0);
    EXPECT_GE(ph, prev);
    prev = ph;
  }
}

TYPED_TEST(PhasePolicyTest, ConcurrentPhasesRespectTheDoorway) {
  TypeParam p(8);
  wf_queue_base<std::uint64_t> dummy(1);
  constexpr int kThreads = 4, kOps = 500;
  std::vector<std::vector<std::int64_t>> seen(kThreads);
  spin_barrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      mock_guard g;
      barrier.arrive_and_wait();
      for (int i = 0; i < kOps; ++i) {
        seen[t].push_back(p.next_phase(dummy, g, static_cast<std::uint32_t>(t)));
      }
    });
  }
  for (auto& th : ts) th.join();
  // Per-thread monotone non-decreasing (each next call starts after the
  // previous completed).
  for (auto& v : seen) {
    for (std::size_t i = 1; i < v.size(); ++i) EXPECT_GE(v[i], v[i - 1]);
  }
  // fetch_add phases are additionally globally unique.
  std::set<std::int64_t> all;
  for (auto& v : seen) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kOps));
}

TEST(ScanMaxPhase, ReturnsOneAboveTheMaximumInState) {
  wf_queue_base<std::uint64_t> q(4);
  scan_max_phase p(4);
  hp_domain dom(1, 4);
  auto g = dom.enter(0);
  // Fresh queue: all records carry phase -1, so the first phase is 0.
  EXPECT_EQ(p.next_phase(q, g, 0), 0);
  q.enqueue(1, 2);  // thread 2's record now carries phase 0
  EXPECT_EQ(p.next_phase(q, g, 0), 1);
  q.enqueue(2, 1);
  EXPECT_EQ(p.next_phase(q, g, 0), 2);
  (void)q.dequeue(3);
  EXPECT_EQ(p.next_phase(q, g, 0), 3);
}

}  // namespace
}  // namespace kpq
