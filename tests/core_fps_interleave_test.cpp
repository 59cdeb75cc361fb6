// Exhaustive interleaving exploration of the fast-path/slow-path queue's
// cross-path races — the part of wf_queue_fps that neither the base queue's
// explorer nor OS-thread stress can pin down deterministically:
//
//   * a fast dequeue's head-word CAS vs a slow claim of the same sentinel;
//   * fast link (anonymous node) vs slow link (announced node);
//   * helpers finishing claims/links of the other path.
//
// Same method as core_interleave_test: the real wf_queue_fps under the
// baton scheduler, DFS over every schedule within the preemption bound,
// each completed run checked by the exact linearizability checker, every
// reclaimed node freed (testing::freeing_storage). An
// operation takes the slow path only when the schedule makes all of its
// fast attempts fail, so the budget is small (kTries) and each scenario
// asserts that some explored schedule puts every worker on the path the
// scenario names, so every path it names ran somewhere.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/wf_queue_fps.hpp"
#include "support/baton.hpp"
#include "support/fault_storage.hpp"
#include "support/hooks.hpp"

namespace kpq {
namespace {

using testing::baton;
using testing::chooser;
using testing::eager_hp_domain;
using testing::program;

/// One failed fast attempt sends an operation to the slow path.
constexpr std::uint32_t kTries = 1;

/// Fast attempts per tid in the current schedule. Workers run one at a
/// time, handing over through the baton, so plain counters suffice.
struct attempt_counter : no_hooks {
  static inline std::array<std::uint32_t, 4> attempts{};
  static void event(std::uint32_t tid, wf_event e, std::int64_t /*phase*/,
                    std::uint32_t /*aux*/) {
    if (e == wf_event::fast_attempt) ++attempts[tid];
  }
};

template <std::uint32_t Tries>
struct tries_options : fps_options {
  using hooks = testing::compose<baton::hook, attempt_counter>;
  using fast_path = ms_fast_path<Tries>;
};
template <std::uint32_t Tries>
using fps_queue =
    wf_queue_fps<std::uint64_t, eager_hp_domain, tries_options<Tries>,
                 testing::freeing_storage<std::uint64_t>>;

/// The path an operation completed on, read off the per-thread counters.
enum class path { fast, slow };

/// What a scenario's schedules reached.
struct path_report {
  std::uint64_t schedules = 0;
  std::uint64_t matched = 0;  // schedules with every worker on `want`
  std::uint64_t retried = 0;  // schedules where a fast attempt was repeated
  fps_path_stats total;       // summed over schedules
};

/// Explores every schedule of `progs` (worker w runs as tid w on a queue
/// of 4 threads; tid 3 prefills and drains) with a fast-path budget of
/// Tries, and checks each history.
template <std::uint32_t Tries>
path_report explore_paths(const std::vector<program>& progs,
                          std::uint64_t prefill,
                          const std::vector<path>& want) {
  using Q = fps_queue<Tries>;
  baton b(static_cast<std::uint32_t>(progs.size()));
  path_report rep;
  const testing::explore_report r = testing::explore(
      b, testing::preemption_bound(progs.size()), [&](chooser& c) {
        Q q(4);
        attempt_counter::attempts = {};
        std::string err = testing::run_checked(b, c, q, progs, prefill, 3);
        bool all = true;
        for (std::uint32_t w = 0; w < want.size(); ++w) {
          const fps_path_stats p = q.path_counters(w);
          rep.total += p;
          all = all && (want[w] == path::fast ? p.fast_enqs + p.fast_deqs
                                              : p.slow_enqs + p.slow_deqs) > 0;
        }
        rep.matched += all ? 1 : 0;
        for (std::size_t w = 0; w < progs.size(); ++w) {
          if (attempt_counter::attempts[w] > progs[w].size()) {
            ++rep.retried;
            break;
          }
        }
        return err;
      });
  EXPECT_EQ(r.failure, "");
  rep.schedules = r.schedules;
  const fps_path_stats& t = rep.total;
  std::printf(
      "[ explored ] max_tries %u: %llu schedules, %llu on the named paths, "
      "%llu with a fast retry; fast %llu/%llu slow %llu/%llu (enq/deq)\n",
      Tries, static_cast<unsigned long long>(rep.schedules),
      static_cast<unsigned long long>(rep.matched),
      static_cast<unsigned long long>(rep.retried),
      static_cast<unsigned long long>(t.fast_enqs),
      static_cast<unsigned long long>(t.fast_deqs),
      static_cast<unsigned long long>(t.slow_enqs),
      static_cast<unsigned long long>(t.slow_deqs));
  return rep;
}

/// Some schedule put every worker on the path the scenario names, so each
/// named path ran; with more than one attempt, some attempt was retried.
template <std::uint32_t Tries>
void expect_paths(const std::vector<program>& progs, std::uint64_t prefill,
                  const std::vector<path>& want) {
  const path_report r = explore_paths<Tries>(progs, prefill, want);
  EXPECT_GT(r.matched, 0u) << "no schedule put the workers on these paths";
  for (const path p : want) {
    EXPECT_GT(p == path::fast ? r.total.fast_enqs + r.total.fast_deqs
                              : r.total.slow_enqs + r.total.slow_deqs,
              0u);
  }
  if constexpr (Tries > 1) {
    EXPECT_GT(r.retried, 0u) << "no fast attempt was ever retried";
  }
}

const testing::op_spec deq{false};
testing::op_spec enq(std::uint64_t v) { return {true, v}; }
constexpr path fast = path::fast;
constexpr path slow = path::slow;

// ------------------------------------------------------------------ tests

TEST(FpsInterleave, FastClaimRacesSlowClaimOnOneElement) {
  // The central interop hazard: both claim styles CAS the same unclaimed
  // head word. Exactly one gets the element in every schedule.
  expect_paths<kTries>({{deq}, {deq}}, /*prefill=*/1, {fast, slow});
}

TEST(FpsInterleave, FastClaimRacesSlowClaimTwoElements) {
  expect_paths<kTries>({{deq}, {deq}}, /*prefill=*/2, {fast, slow});
}

TEST(FpsInterleave, TwoFastClaimsRace) {
  // Both claims fast: the loser of the head-word CAS must retry on the fast
  // path, so this one runs with two attempts.
  expect_paths<2>({{deq}, {deq}}, /*prefill=*/1, {fast, fast});
}

TEST(FpsInterleave, FastDequeueMeetsAStandingSlowClaim) {
  // Worker 0's one dequeue goes slow once worker 1's first fast dequeue
  // beats it, and its claim {first, 0} can stand while worker 1 dequeues
  // again. That fast dequeue must finish the claim before its own CAS: a
  // CAS from the claimed word would take the item the claim linearized.
  expect_paths<kTries>({{deq}, {deq, deq}}, /*prefill=*/3, {slow, fast});
}

TEST(FpsInterleave, FastLinkRacesSlowLink) {
  expect_paths<kTries>({{enq(100)}, {enq(200)}}, /*prefill=*/0,
                        {fast, slow});
}

TEST(FpsInterleave, FastEnqueueRacesSlowDequeueOnEmpty) {
  expect_paths<kTries>({{enq(100)}, {deq}}, /*prefill=*/0, {fast, slow});
}

TEST(FpsInterleave, SlowEnqueueRacesFastDequeueOnEmpty) {
  // Unreachable on the real queue: a fast enqueue attempt fails only if
  // the tail moves or a node is linked, and a lone dequeuer on an empty
  // queue does neither, so the enqueue is fast in every schedule at any
  // budget. What is left to explore is the dequeuer retrying fast while
  // the link lands, hence two attempts. A fast dequeuer finishing an
  // announced enqueue is reached in SlowPairRacesFastPair.
  const path_report r =
      explore_paths<2>({{enq(100)}, {deq}}, /*prefill=*/0, {slow, fast});
  EXPECT_EQ(r.matched, 0u);
  EXPECT_EQ(r.total.slow_enqs, 0u);
  EXPECT_GT(r.total.fast_deqs, 0u);
  EXPECT_GT(r.retried, 0u);
}

TEST(FpsInterleave, ThreeWayCrossPathRace) {
  // fast enq + slow deq + fast deq over one prefilled element: claim
  // ordering, dangling-link helping and the empty path in one family.
  expect_paths<kTries>({{enq(100)}, {deq}, {deq}}, /*prefill=*/1,
                        {fast, slow, fast});
}

TEST(FpsInterleave, SlowPairRacesFastPair) {
  expect_paths<kTries>({{enq(100)}, {enq(200)}, {deq}}, /*prefill=*/0,
                        {slow, fast, slow});
}

TEST(FpsInterleave, ProbeReadsARecordThatMovesOn) {
  // No fast attempts: every operation announces. Worker 1's probe reads
  // worker 0's record (tag, node, tag again, then the phase) while worker 0
  // completes its dequeue and announces its enqueue, so the probe can pair
  // the dequeue's word with the enqueue's phase, or see its tags differ
  // and fall back to the CAS. Helping by the dequeue's word under the
  // enqueue's phase would complete the enqueue as an empty dequeue, and
  // 100 would be lost; pending_record checks the kind (mutant 16).
  expect_paths<0>({{deq, enq(100)}, {deq}}, /*prefill=*/0, {slow, slow});
}

}  // namespace
}  // namespace kpq
