// Shape regressions: miniature versions of the paper's experiments whose
// *qualitative* outcomes are stable enough to assert in CI. Absolute
// timings are hardware-dependent; these invariants are not:
//
//   * Figure 10's asymptote: the per-node space ratio approaches
//     sizeof(wf_node)/sizeof(ms_node) = 1.5 as the queue grows;
//   * Figure 7/9's ordering: the lock-free queue completes the pairs
//     workload faster than the base wait-free queue at oversubscription
//     (the paper's universal observation outside the CentOS anomaly), and
//     the fully-optimized variant does not lose to the base variant by any
//     meaningful margin;
//   * fps ordering: the fast-path/slow-path queue lands between LF and the
//     announce-always variants;
//   * hot-word layout: head_, tail_ and the vector headers every operation
//     reads each own a 128-byte block, so a tail CAS never invalidates the
//     line a state_ access reads (deterministic: compares addresses).
//
// Timing-based checks use generous margins (2x) so scheduler noise on
// loaded CI machines cannot flip them. The fps check has no margin, so it
// compares medians of interleaved runs that fit the host's hardware threads,
// each long enough (tens of milliseconds) that thread start-up and a stray
// preemption do not decide it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/mem_tracker.hpp"
#include "harness/timing.hpp"
#include "harness/workload.hpp"
#include "support/whitebox.hpp"
#include "sync/cacheline.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq {
namespace {

template <typename Q>
double pairs_seconds_once(std::uint32_t threads, std::uint64_t iters) {
  Q q(threads);
  spin_barrier barrier(threads + 1);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < iters; ++i) {
        q.enqueue(encode_value(tid, i), tid);
        (void)q.dequeue(tid);
      }
    });
  }
  barrier.arrive_and_wait();
  stopwatch sw;
  for (auto& w : workers) w.join();
  return sw.elapsed_s();
}

/// Best-of-3: the minimum is the standard noise-robust estimator for
/// timing comparisons on shared machines.
template <typename Q>
double pairs_seconds(std::uint32_t threads, std::uint64_t iters) {
  double best = pairs_seconds_once<Q>(threads, iters);
  for (int r = 0; r < 2; ++r) {
    best = std::min(best, pairs_seconds_once<Q>(threads, iters));
  }
  return best;
}

/// Medians of kRuns runs of A and of B. The runs alternate which queue goes
/// first, so drift in the host's load falls on both sides.
template <typename A, typename B>
std::pair<double, double> interleaved_medians(std::uint32_t threads,
                                              std::uint64_t iters) {
  constexpr std::size_t kRuns = 5;
  std::vector<double> a, b;
  for (std::size_t r = 0; r < kRuns; ++r) {
    if (r % 2 == 0) {
      a.push_back(pairs_seconds_once<A>(threads, iters));
      b.push_back(pairs_seconds_once<B>(threads, iters));
    } else {
      b.push_back(pairs_seconds_once<B>(threads, iters));
      a.push_back(pairs_seconds_once<A>(threads, iters));
    }
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + kRuns / 2, v.end());
    return v[kRuns / 2];
  };
  return {median(a), median(b)};
}

TEST(ShapeRegression, Figure10SpaceRatioApproachesOnePointFive) {
  // Deterministic: counts bytes, not time. 50k elements is deep into the
  // node-dominated regime.
  constexpr std::uint64_t kSize = 50000;
  mem_counters lf_mc, wf_mc;
  {
    ms_queue<std::uint64_t> lf(2, &lf_mc);
    for (std::uint64_t i = 0; i < kSize; ++i) lf.enqueue(i, 0);
    wf_queue_base<std::uint64_t> wf(2, &wf_mc);
    for (std::uint64_t i = 0; i < kSize; ++i) wf.enqueue(i, 0);

    const double ratio = static_cast<double>(wf_mc.live_bytes()) /
                         static_cast<double>(lf_mc.live_bytes());
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 1.7);
  }
  EXPECT_EQ(lf_mc.live_bytes(), 0);
  EXPECT_EQ(wf_mc.live_bytes(), 0);
}

TEST(ShapeRegression, NodeSizesExplainThePaperAsymptote) {
  // The paper attributes the 1.5x to the enqTid/deqTid fields; pin the
  // layouts so a future field addition is a conscious decision.
  EXPECT_EQ(sizeof(ms_queue<std::uint64_t>::node), 16u);
  EXPECT_EQ(sizeof(wf_node<std::uint64_t>), 24u);
}

/// Every pair of hot words must fall in distinct 128-byte blocks.
template <typename Q>
void expect_hot_words_on_distinct_blocks() {
  Q q(4);
  const auto words = testing::whitebox::hot_words(q);
  const auto block = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / destructive_interference;
  };
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = i + 1; j < words.size(); ++j) {
      EXPECT_NE(block(words[i].second), block(words[j].second))
          << words[i].first << " and " << words[j].first
          << " share a 128-byte block";
    }
  }
}

TEST(ShapeRegression, OptHotWordsOwnTheirBlocks) {
  expect_hot_words_on_distinct_blocks<wf_queue_opt<std::uint64_t>>();
}

TEST(ShapeRegression, FpsHotWordsOwnTheirBlocks) {
  expect_hot_words_on_distinct_blocks<wf_queue_fps<std::uint64_t>>();
}

TEST(ShapeRegression, LockFreeBeatsBaseWaitFreeOnPairs) {
  const double lf = pairs_seconds<ms_queue<std::uint64_t>>(8, 3000);
  const double base_wf = pairs_seconds<wf_queue_base<std::uint64_t>>(8, 3000);
  EXPECT_LT(lf * 2.0, base_wf)
      << "LF should beat base WF by far more than 2x at oversubscription";
}

TEST(ShapeRegression, OptimizedVariantDoesNotLoseToBase) {
  // At 12 threads the scan/helping overhead separates the variants; allow
  // the optimized one up to 1.3x of base to absorb noise (it is typically
  // ~0.6-0.9x).
  const double base_wf =
      pairs_seconds<wf_queue_base<std::uint64_t>>(12, 5000);
  const double opt_wf = pairs_seconds<wf_queue_opt<std::uint64_t>>(12, 5000);
  EXPECT_LT(opt_wf, base_wf * 1.3);
}

TEST(ShapeRegression, FpsLandsBetweenLfAndAnnounceAlways) {
  // Oversubscribed runs measure which queue the scheduler favoured, not the
  // fast path: stay within the hardware threads.
  const std::uint32_t threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  const auto [fps, opt_wf] =
      interleaved_medians<wf_queue_fps<std::uint64_t>,
                          wf_queue_opt<std::uint64_t>>(threads, 20000);
  EXPECT_LT(fps, opt_wf)
      << "the fast path should beat announce-on-every-operation";
}

}  // namespace
}  // namespace kpq
