// Direct observation of the helping mechanism — the property that makes the
// queue wait-free rather than merely lock-free.
//
// Using the hook event that fires right after a thread publishes its
// operation in its announce record (and before it helps anyone, including
// itself), we
// freeze a thread at its most vulnerable point: operation announced, nothing
// executed. A lock-free queue would simply leave that operation dormant;
// the KP queue requires *other* threads to complete it on the frozen
// thread's behalf. These tests verify exactly that:
//
//   * a frozen enqueue's value becomes dequeuable by peers while the
//     enqueuer is still frozen;
//   * a frozen dequeue is executed by peers: the head element is claimed
//     for the frozen thread and its record names the element's node, and
//     when the thread thaws it returns that element without taking any
//     further queue steps of its own;
//   * peers keep completing unboundedly many of their own operations while
//     a thread stays frozen (no global progress dependency on any single
//     thread);
//   * a helper frozen right after its winning link leaves a dangling node
//     that peers finish through help_finish_enq, and its own late
//     completion and tail CASes then fail harmlessly;
//   * the traced run of a helped enqueue or dequeue renders a
//     helper->helped flow arrow in the timeline export (obs/timeline.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "obs/calibrate.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_ring.hpp"
#include "support/hooks.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

// Hook state: when `frozen_tid` matches the publishing thread, it parks on
// `gate` until released. Plain relaxed atomics + spin/yield keep this
// test-only code simple.
std::atomic<std::int64_t> frozen_tid{-1};
std::atomic<bool> gate_open{true};
std::atomic<bool> is_frozen{false};

// A second, independent freeze: `winner_tid` parks at its first record CAS
// after a link CAS. After a winning link that is the CAS completing the
// operation it linked for.
std::atomic<std::int64_t> winner_tid{-1};
std::atomic<bool> winner_gate_open{true};
std::atomic<bool> winner_is_frozen{false};
thread_local bool linked = false;

void park(std::atomic<bool>& open, std::atomic<bool>& parked) {
  parked.store(true, std::memory_order_release);
  while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
  parked.store(false, std::memory_order_release);
}

struct freezing_hooks : no_hooks {
  static void sched_point(std::uint32_t tid, sched_site site) {
    if (static_cast<std::int64_t>(tid) ==
        winner_tid.load(std::memory_order_acquire)) {
      if (site == sched_site::link) linked = true;
      if (site == sched_site::state && linked) {
        linked = false;
        park(winner_gate_open, winner_is_frozen);
      }
    }
  }
  static void event(std::uint32_t tid, wf_event e, std::int64_t /*phase*/,
                    std::uint32_t /*aux*/) {
    if (testing::is_publish(e) &&
        static_cast<std::int64_t>(tid) ==
            frozen_tid.load(std::memory_order_acquire)) {
      park(gate_open, is_frozen);
    }
  }
};

struct freezing_options : wf_options {
  using hooks = freezing_hooks;
};

template <typename T>
using frozen_queue_of =
    wf_queue<T, help_all, scan_max_phase, hp_domain, freezing_options>;
using frozen_queue = frozen_queue_of<std::uint64_t>;

// The stats or trace part first: the publish is counted or recorded before
// the owner freezes.
struct counting_freezing_options : wf_options {
  using hooks = testing::compose<wf_stats, freezing_hooks>;
};
using counting_frozen_queue = wf_queue<std::uint64_t, help_all, scan_max_phase,
                                       hp_domain, counting_freezing_options>;

struct traced_freezing_options : wf_options {
  using hooks = testing::compose<wf_trace, freezing_hooks>;
};
using traced_frozen_queue = wf_queue<std::uint64_t, help_all, scan_max_phase,
                                     hp_domain, traced_freezing_options>;

// A two-word payload, the way an application that wants item latency carries
// its enqueue timestamp inside the item.
struct stamped {
  std::uint64_t id;
  std::uint64_t enq_ts;
  bool operator==(const stamped&) const = default;
};

class ProgressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    frozen_tid.store(-1, std::memory_order_release);
    gate_open.store(true, std::memory_order_release);
    is_frozen.store(false, std::memory_order_release);
  }
  void TearDown() override {
    gate_open.store(true, std::memory_order_release);
    frozen_tid.store(-1, std::memory_order_release);
    winner_gate_open.store(true, std::memory_order_release);
    winner_tid.store(-1, std::memory_order_release);
  }

  static void freeze(std::uint32_t tid) {
    gate_open.store(false, std::memory_order_release);
    frozen_tid.store(tid, std::memory_order_release);
  }
  static void wait_frozen() {
    while (!is_frozen.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  static void thaw() { gate_open.store(true, std::memory_order_release); }

  static void freeze_winner(std::uint32_t tid) {
    winner_gate_open.store(false, std::memory_order_release);
    winner_tid.store(tid, std::memory_order_release);
  }
  static void wait_winner_frozen() {
    while (!winner_is_frozen.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  static void thaw_winner() {
    winner_gate_open.store(true, std::memory_order_release);
  }

  // Drain the global rings (every traced thread has joined) and render them
  // as the Perfetto timeline; a traced scenario this small drops nothing.
  static std::string drained_timeline() {
    std::uint64_t dropped = 0;
    const std::vector<obs::trace_event> events =
        obs::global_trace().drain_all(&dropped);
    EXPECT_EQ(dropped, 0u);
    return obs::trace_to_timeline(events, obs::calibrate_ticks(1'000'000),
                                  dropped);
  }

  // Thread 1 enqueues `first` then `second`; thread 0's dequeue is frozen
  // right after it announces and must be completed by thread 1.
  template <typename T>
  static void frozen_dequeue_gets_first(const T& first, const T& second) {
    frozen_queue_of<T> q(2);
    q.enqueue(first, 1);
    q.enqueue(second, 1);

    freeze(0);
    std::optional<T> got;
    std::thread frozen([&] { got = q.dequeue(0); });
    wait_frozen();

    // Thread 1 helps the frozen dequeue before performing its own, so its
    // own dequeue must observe the *second* element.
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, second) << "peer's dequeue should come after the frozen one";

    thaw();
    frozen.join();
    // A helper completed the frozen thread's record naming the payload's
    // node; the owner returns it as the enqueuer wrote it, every word intact.
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, first) << "frozen dequeue must return the element "
                              "helpers removed on its behalf";
    EXPECT_EQ(q.unsafe_size(), 0u);
  }
};

TEST_F(ProgressTest, PeersCompleteAFrozenEnqueue) {
  frozen_queue q(2);
  freeze(0);
  std::thread frozen([&] { q.enqueue(42, 0); });
  wait_frozen();

  // Thread 0 is parked with a pending enqueue it has not begun executing.
  // Thread 1's next operation must pick it up (its phase is older).
  auto v = q.dequeue(1);
  ASSERT_TRUE(v.has_value()) << "peer did not help the frozen enqueue";
  EXPECT_EQ(*v, 42u);

  thaw();
  frozen.join();
  EXPECT_EQ(q.unsafe_size(), 0u);
}

TEST_F(ProgressTest, PeersCompleteAFrozenDequeue) {
  frozen_dequeue_gets_first<std::uint64_t>(7, 8);
  frozen_dequeue_gets_first(stamped{7, 0x0123456789abcdefULL},
                            stamped{8, 0xfedcba9876543210ULL});
}

TEST_F(ProgressTest, HelpedFrozenDequeueDrawsAFlowArrow) {
  // The timeline's helper->helped arrow, from a real traced run rather than
  // synthetic events: thread 1 helps thread 0's frozen dequeue, so the
  // renderer must pair thread 1's help episode with thread 0's completion.
  obs::global_trace().reset();
  traced_frozen_queue q(2);
  q.enqueue(7, 1);

  freeze(0);
  std::optional<std::uint64_t> got;
  std::thread frozen([&] { got = q.dequeue(0); });
  wait_frozen();
  q.enqueue(8, 1);  // help_all: completes the frozen dequeue first
  thaw();
  frozen.join();
  EXPECT_EQ(got, std::optional<std::uint64_t>{7});

  const std::string doc = drained_timeline();
  EXPECT_NE(doc.find(R"("ph":"s","pid":0,"tid":1,)"), std::string::npos)
      << "no arrow leaves the helper";
  EXPECT_NE(doc.find(R"("ph":"f","pid":0,"tid":0,)"), std::string::npos)
      << "no arrow ends at the frozen dequeue";
}

TEST_F(ProgressTest, HelpedFrozenEnqueueDrawsAFlowArrow) {
  // The enqueue side of the same arrow: thread 1's dequeue helps thread 0's
  // frozen enqueue (older phase) and then removes the item it linked.
  obs::global_trace().reset();
  traced_frozen_queue q(2);

  freeze(0);
  std::thread frozen([&] { q.enqueue(42, 0); });
  wait_frozen();
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>{42});
  thaw();
  frozen.join();

  const std::string doc = drained_timeline();
  EXPECT_NE(doc.find(R"("name":"enqueue","ph":"X","pid":0,"tid":0,)"),
            std::string::npos)
      << "the frozen enqueue has no slice";
  EXPECT_NE(doc.find(R"("ph":"s","pid":0,"tid":1,)"), std::string::npos)
      << "no arrow leaves the helper";
  EXPECT_NE(doc.find(R"("ph":"f","pid":0,"tid":0,)"), std::string::npos)
      << "no arrow ends at the frozen enqueue";
}

TEST_F(ProgressTest, FrozenEmptyDequeueIsCompletedByPeers) {
  frozen_queue q(2);
  freeze(0);
  std::optional<std::uint64_t> got = std::uint64_t{123};
  std::thread frozen([&] { got = q.dequeue(0); });
  wait_frozen();

  // Peer helps: the frozen dequeue linearizes on the empty queue.
  q.enqueue(1, 1);
  // The helped dequeue's linearization point (peer reading an empty queue)
  // may fall before or... no: thread 1's enqueue has a *later* phase, and it
  // helps the frozen op first, so the frozen dequeue linearizes before the
  // enqueue and must return empty.
  auto v = q.dequeue(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1u);

  thaw();
  frozen.join();
  EXPECT_EQ(got, std::nullopt)
      << "frozen dequeue was linearized on an empty queue by its helper";
}

TEST_F(ProgressTest, PeersMakeUnboundedProgressWhileOneThreadIsFrozen) {
  frozen_queue q(3);
  freeze(0);
  std::thread frozen([&] { q.enqueue(999, 0); });
  wait_frozen();

  // Threads 1 and 2 run a long workload; none of it may hang on thread 0.
  std::uint64_t completed = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    q.enqueue(i, 1);
    if (q.dequeue(2).has_value()) ++completed;
  }
  EXPECT_GT(completed, 0u);

  thaw();
  frozen.join();
  // 999 was enqueued (helped) at the very beginning; everything balances.
  std::uint64_t drained = 0;
  while (q.dequeue(1).has_value()) ++drained;
  EXPECT_EQ(completed + drained, 2001u);
}

TEST_F(ProgressTest, PeersFinishAFrozenLinkWinnersTarget) {
  // Thread 0's enqueue is announced and frozen. Thread 1 helps it (older
  // phase, help_all), wins the link and freezes before completing thread
  // 0's record, leaving its node dangling behind the tail.
  counting_frozen_queue q(3);
  history_recorder h(3);
  auto enqueue = [&](std::uint64_t v, std::uint32_t tid) {
    auto s = h.begin(tid, op_kind::enq, v);
    q.enqueue(v, tid);
    s.commit();
  };
  auto dequeue = [&](std::uint32_t tid) {
    auto s = h.begin(tid, op_kind::deq);
    const std::optional<std::uint64_t> v = q.dequeue(tid);
    if (v) {
      s.set_value(*v);
    } else {
      s.set_empty();
    }
    s.commit();
    return v;
  };

  freeze(0);
  std::thread owner([&] { enqueue(42, 0); });
  wait_frozen();
  freeze_winner(1);
  std::thread winner([&] { enqueue(7, 1); });
  wait_winner_frozen();

  // Thread 2 finds 42 dangling, completes thread 0's enqueue through
  // help_finish_enq, helps thread 1's own enqueue, then takes 42 — all
  // while the winner stays frozen.
  EXPECT_EQ(dequeue(2), std::optional<std::uint64_t>{42});
  EXPECT_GE(q.counters(2).helped_enq_completions, 2u)
      << "thread 0's and thread 1's enqueues, both completed by thread 2";
  EXPECT_TRUE(winner_is_frozen.load(std::memory_order_acquire));
  EXPECT_EQ(q.counters(1).helped_enq_completions, 0u);

  thaw_winner();
  winner.join();
  EXPECT_EQ(q.counters(1).helped_enq_completions, 0u)
      << "the winner's late completion CAS must lose";
  EXPECT_GE(q.counters(1).desc_cas_failures, 1u);
  thaw();
  owner.join();

  EXPECT_EQ(q.unsafe_size(), 1u);
  std::vector<std::uint64_t> drained;
  while (auto v = dequeue(2)) drained.push_back(*v);
  EXPECT_EQ(drained, std::vector<std::uint64_t>{7});
  const check_result r = fifo_checker::check(h.collect(), {});
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST_F(ProgressTest, HelpedOperationIsAppliedExactlyOnce) {
  // The subtlest part of the scheme (paper §3.1): concurrent helpers must
  // not apply the same operation twice. Freeze an enqueuer, let MANY peers
  // all try to help it, then count.
  frozen_queue q(4);
  freeze(0);
  std::thread frozen([&] { q.enqueue(4242, 0); });
  wait_frozen();

  std::thread peers[3];
  for (int t = 0; t < 3; ++t) {
    peers[t] = std::thread([&, t] {
      // Every peer operation re-scans state and would re-help thread 0 if
      // its record still looked pending.
      for (int i = 0; i < 200; ++i) {
        q.enqueue(static_cast<std::uint64_t>(1000 + t * 200 + i),
                  static_cast<std::uint32_t>(t + 1));
      }
    });
  }
  for (auto& p : peers) p.join();
  thaw();
  frozen.join();

  std::uint64_t count_4242 = 0;
  std::uint64_t total = 0;
  while (auto v = q.dequeue(1)) {
    ++total;
    if (*v == 4242) ++count_4242;
  }
  EXPECT_EQ(count_4242, 1u) << "helped enqueue applied more than once";
  EXPECT_EQ(total, 601u);
}

}  // namespace
}  // namespace kpq
