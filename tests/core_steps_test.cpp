// Steps per operation: the unit of the paper's per-operation bound is one
// scheduling point (one sched_point call, core/wf_queue.hpp), and
// testing::step_counter counts them between marks around an operation.
//
//   * solo counts on fresh queues, pinned: tid 0 enqueues, dequeues, then
//     dequeues from the empty queue, at n = 1, 2, 4, 8 (docs/ALGORITHM.md
//     §3 starts the step bound from these);
//   * the fewest and most steps each operation took over every schedule of
//     one two-worker explorer scenario, composed with the baton.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "core/wf_queue_fps.hpp"
#include "support/baton.hpp"
#include "support/hooks.hpp"

namespace kpq {
namespace {

using testing::baton;
using testing::step_counter;

struct counted_options : wf_options {
  using hooks = step_counter;
};
struct counted_fps_options : fps_options {
  using hooks = step_counter;
};
struct explored_options : wf_options {
  using hooks = testing::compose<baton::hook, step_counter>;
};

using base_queue = wf_queue<std::uint64_t, help_all, scan_max_phase,
                            hp_domain, counted_options>;
using opt_queue = wf_queue<std::uint64_t, help_one, fetch_add_phase,
                           hp_domain, counted_options>;
using fps_queue = wf_queue_fps<std::uint64_t, hp_domain, counted_fps_options>;

/// Steps of one enqueue, one dequeue and one empty dequeue by tid 0.
struct solo_steps {
  std::uint64_t enq, deq, empty_deq;
  bool operator==(const solo_steps&) const = default;
};

template <typename Q>
solo_steps solo(std::uint32_t n) {
  Q q(n);
  solo_steps s{};
  step_counter::begin();
  q.enqueue(1, 0);
  s.enq = step_counter::end();
  step_counter::begin();
  EXPECT_EQ(q.dequeue(0), std::optional<std::uint64_t>(1));
  s.deq = step_counter::end();
  step_counter::begin();
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  s.empty_deq = step_counter::end();
  return s;
}

constexpr std::array<std::uint32_t, 4> kThreads = {1, 2, 4, 8};

template <typename Q>
void expect_solo(const char* name,
                 const std::array<solo_steps, kThreads.size()>& want) {
  for (std::size_t i = 0; i < kThreads.size(); ++i) {
    const solo_steps got = solo<Q>(kThreads[i]);
    EXPECT_EQ(got, want[i]) << name << " n=" << kThreads[i] << ": "
                            << got.enq << "/" << got.deq << "/"
                            << got.empty_deq;
  }
}

TEST(StepCount, SoloBaseGrowsWithN) {
  // help_all reads every record (four loads each: tag, node, tag again,
  // phase) on every operation, and scan_max_phase reads every phase:
  // 18 + 5n steps per enqueue.
  expect_solo<base_queue>(
      "base", {{{23, 33, 29}, {28, 38, 34}, {38, 48, 44}, {58, 68, 64}}});
}

TEST(StepCount, SoloOptIsFlatInN) {
  expect_solo<opt_queue>(
      "opt", {{{22, 32, 28}, {22, 36, 28}, {22, 36, 32}, {22, 36, 32}}});
}

TEST(StepCount, SoloFpsIsFlatInN) {
  // An empty dequeue is two protects (head word, sentinel's next), plus the
  // probe's four record loads (tag, node, tag again, phase) when it lands
  // on a peer's slot.
  expect_solo<fps_queue>("fps",
                         {{{5, 6, 2}, {5, 10, 2}, {5, 10, 6}, {5, 10, 6}}});
}

/// Counts the calling thread's sched_site::load steps between begin() and
/// end().
struct load_counter : no_hooks {
  static void sched_point(std::uint32_t /*tid*/, sched_site site) {
    if (counting_ && site == sched_site::load) ++loads_;
  }
  static void begin() noexcept {
    loads_ = 0;
    counting_ = true;
  }
  static std::uint64_t end() noexcept {
    counting_ = false;
    return loads_;
  }

 private:
  static inline thread_local bool counting_ = false;
  static inline thread_local std::uint64_t loads_ = 0;
};

struct load_counted_fps_options : fps_options {
  using hooks = load_counter;
};

TEST(StepCount, EmptyFpsDequeueLoadsOnlyTheProbedRecord) {
  // The empty decision reads neither tail nor the head word a second time:
  // an empty fast dequeue's only loads are its probe's record loads: the
  // word's tag, node and tag again, then the phase.
  wf_queue_fps<std::uint64_t, hp_domain, load_counted_fps_options> q(2);
  load_counter::begin();
  EXPECT_EQ(q.dequeue(0), std::nullopt);  // the probe lands on slot 0, own
  EXPECT_EQ(load_counter::end(), 0u);
  load_counter::begin();
  EXPECT_EQ(q.dequeue(0), std::nullopt);  // the probe reads slot 1
  EXPECT_EQ(load_counter::end(), 4u);
  load_counter::begin();
  EXPECT_TRUE(q.empty_hint(0));
  EXPECT_EQ(load_counter::end(), 0u);
}

/// The fewest and most steps an enqueue and a dequeue took over every
/// schedule of InterleaveExplorer.EnqueueRacesDequeueOnEmptyQueue.
/// `solo_enq` is the queue's solo enqueue count at n = 4.
template <typename Policy, typename Phase>
void explore_max_steps(const char* name, std::uint64_t solo_enq) {
  using Q = wf_queue<std::uint64_t, Policy, Phase,
                     testing::eager_hp_domain, explored_options>;
  baton b(2);
  std::array<std::uint64_t, 2> most = {0, 0};  // enqueue, dequeue
  std::array<std::uint64_t, 2> fewest = {~std::uint64_t{0},
                                         ~std::uint64_t{0}};
  const testing::explore_report r = testing::explore(
      b, testing::preemption_bound(2), [&](testing::chooser& c) {
        Q q(4);
        b.run(
            [&](std::uint32_t w) {
              step_counter::begin();
              if (w == 0) {
                q.enqueue(100, w);
              } else {
                (void)q.dequeue(w);
              }
              const std::uint64_t steps = step_counter::end();
              most[w] = std::max(most[w], steps);
              fewest[w] = std::min(fewest[w], steps);
            },
            c);
        return std::string();
      });
  EXPECT_EQ(r.failure, "");
  std::printf(
      "[ explored ] %s steps, enqueue || dequeue on an empty queue of 4: "
      "%llu schedules, enqueue %llu..%llu, dequeue %llu..%llu\n",
      name, static_cast<unsigned long long>(r.schedules),
      static_cast<unsigned long long>(fewest[0]),
      static_cast<unsigned long long>(most[0]),
      static_cast<unsigned long long>(fewest[1]),
      static_cast<unsigned long long>(most[1]));
  // The schedule with no preemption runs the enqueue alone on the fresh
  // queue. Others cost it more steps (retries, helping the dequeue) or
  // fewer (the dequeuer completed it first).
  EXPECT_LE(fewest[0], solo_enq);
  EXPECT_GE(most[0], solo_enq);
}

TEST(StepCount, ExploredMaximumBase) {
  explore_max_steps<help_all, scan_max_phase>("base", solo<base_queue>(4).enq);
}

TEST(StepCount, ExploredMaximumOpt) {
  explore_max_steps<help_one, fetch_add_phase>("opt", solo<opt_queue>(4).enq);
}

}  // namespace
}  // namespace kpq
