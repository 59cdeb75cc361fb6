// Tests for the fast-path/slow-path wait-free queue (wf_queue_fps).
//
// Beyond re-running the generic sequential/stress batteries (the typed
// suites in core_wfqueue_test / core_stress_test include fps), this file
// targets the path INTERPLAY: pure-slow configurations, fast/slow races,
// helping across paths, and the frozen-thread progress property on the
// slow path.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/wf_queue_fps.hpp"
#include "harness/workload.hpp"
#include "support/whitebox.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

struct slow_only_options : fps_options {
  static constexpr std::uint32_t max_tries = 0;  // always announce
};
struct one_try_options : fps_options {
  static constexpr std::uint32_t max_tries = 1;
};

using fps_queue = wf_queue_fps<std::uint64_t>;
using slow_queue = wf_queue_fps<std::uint64_t, hp_domain, slow_only_options>;

template <typename Q>
class FpsVariantTest : public ::testing::Test {};
using FpsTypes =
    ::testing::Types<fps_queue, slow_queue,
                     wf_queue_fps<std::uint64_t, hp_domain, one_try_options>>;
TYPED_TEST_SUITE(FpsVariantTest, FpsTypes);

TYPED_TEST(FpsVariantTest, SequentialFifoContract) {
  TypeParam q(4);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  for (std::uint64_t i = 0; i < 200; ++i) q.enqueue(i, i % 4);
  EXPECT_EQ(q.unsafe_size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) {
    auto v = q.dequeue((i + 1) % 4);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_TRUE(q.empty_hint(0));
}

TYPED_TEST(FpsVariantTest, ConcurrentHistoryIsFifoConsistent) {
  constexpr std::uint32_t kThreads = 4;
  TypeParam q(kThreads);
  history_recorder rec(kThreads);
  spin_barrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&, tid] {
      fast_rng rng = thread_stream(0xF9, tid);
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (int i = 0; i < 1500; ++i) {
        if (rng.coin()) {
          const std::uint64_t v = encode_value(tid, seq++);
          auto s = rec.begin(tid, op_kind::enq, v);
          q.enqueue(v, tid);
          s.commit();
        } else {
          auto s = rec.begin(tid, op_kind::deq);
          auto r = q.dequeue(tid);
          if (r.has_value()) {
            s.set_value(*r);
          } else {
            s.set_empty();
          }
          s.commit();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<std::uint64_t> drained;
  while (auto v = q.dequeue(0)) drained.push_back(*v);
  auto r = fifo_checker::check(rec.collect(), drained);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(FpsInterplay, SlowOnlyAndFastOnlyQueuesInteroperateWithThemselves) {
  // A queue populated entirely by slow-path enqueues must drain correctly
  // through fast-path dequeues, and vice versa — exercised by mixing the
  // two configurations' code paths within one queue via thread phases.
  fps_queue q(2);
  // Phase 1: default fast enqueues.
  for (std::uint64_t i = 0; i < 50; ++i) q.enqueue(i, 0);
  // Phase 2: dequeues (fast path claims with the fast marker).
  for (std::uint64_t i = 0; i < 50; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(FpsInterplay, SlowEnqueuesVisibleToFastDequeues) {
  slow_queue q(2);  // every enqueue announces
  q.enqueue(7, 0);
  q.enqueue(8, 0);
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(8));
}

// ------------------------------------------- frozen slow-path progress

std::atomic<std::int64_t> frozen_tid{-1};
std::atomic<bool> gate_open{true};
std::atomic<bool> is_frozen{false};

struct freezing_fps_hooks {
  static void after_slow_publish(std::uint32_t tid, bool /*is_enq*/) {
    if (static_cast<std::int64_t>(tid) !=
        frozen_tid.load(std::memory_order_acquire)) {
      return;
    }
    is_frozen.store(true, std::memory_order_release);
    while (!gate_open.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    is_frozen.store(false, std::memory_order_release);
  }
};
struct freezing_slow_options : slow_only_options {
  using hooks = freezing_fps_hooks;
};
using frozen_fps =
    wf_queue_fps<std::uint64_t, hp_domain, freezing_slow_options>;

class FpsProgressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    frozen_tid.store(-1);
    gate_open.store(true);
    is_frozen.store(false);
  }
  void TearDown() override {
    gate_open.store(true);
    frozen_tid.store(-1);
  }
};

TEST_F(FpsProgressTest, PeersCompleteAFrozenSlowEnqueue) {
  frozen_fps q(2);
  gate_open.store(false);
  frozen_tid.store(0);
  std::thread frozen([&] { q.enqueue(42, 0); });
  while (!is_frozen.load()) std::this_thread::yield();

  // Thread 1's operation probes the announce array (help_someone) and must
  // complete the frozen enqueue within at most max_threads operations.
  std::optional<std::uint64_t> v;
  for (int i = 0; i < 4 && !v.has_value(); ++i) v = q.dequeue(1);
  ASSERT_TRUE(v.has_value()) << "peer never helped the frozen slow enqueue";
  EXPECT_EQ(*v, 42u);

  gate_open.store(true);
  frozen.join();
  EXPECT_EQ(q.unsafe_size(), 0u);
}

TEST_F(FpsProgressTest, PeersCompleteAFrozenSlowDequeue) {
  frozen_fps q(2);
  q.enqueue(5, 1);
  q.enqueue(6, 1);

  gate_open.store(false);
  frozen_tid.store(0);
  std::optional<std::uint64_t> got;
  std::thread frozen([&] { got = q.dequeue(0); });
  while (!is_frozen.load()) std::this_thread::yield();

  // Peer operations must eventually execute the frozen dequeue; its own
  // dequeues then see later elements.
  std::vector<std::uint64_t> peer_got;
  for (int i = 0; i < 4; ++i) {
    if (auto v = q.dequeue(1)) peer_got.push_back(*v);
  }
  gate_open.store(true);
  frozen.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5u) << "frozen dequeue must receive the front element";
  ASSERT_EQ(peer_got.size(), 1u);
  EXPECT_EQ(peer_got[0], 6u);
}

// ------------------------------------------- fast-path step bound

std::array<std::atomic<std::uint64_t>, 2> fast_attempts;

struct counting_fps_hooks : freezing_fps_hooks {
  static void on_fast_attempt(std::uint32_t tid, bool is_enq);
};
struct counting_options : fps_options {
  using hooks = counting_fps_hooks;
};
struct counting_slow_options : counting_options {
  static constexpr std::uint32_t max_tries = 0;
};
using counting_fps = wf_queue_fps<std::uint64_t, hp_domain, counting_options>;

// Adversary for the step-bound test: when set, every fast attempt of tid 1
// first links a fast node behind the tail without swinging it, so the
// attempt finds a lagging tail and retries. Each of tid 1's fast loops
// therefore runs until its budget is spent.
std::atomic<counting_fps*> lag_tail_of{nullptr};
std::atomic<std::uint64_t> lagged_nodes{0};

void counting_fps_hooks::on_fast_attempt(std::uint32_t tid, bool /*is_enq*/) {
  fast_attempts[tid].fetch_add(1, std::memory_order_relaxed);
  counting_fps* q = lag_tail_of.load(std::memory_order_acquire);
  if (q == nullptr || tid != 1) return;
  // Only tid 1 runs (tid 0 is frozen), so nothing races these steps and
  // the tail cannot be retired under them.
  using testing::whitebox;
  counting_fps::node_type* last = whitebox::tail(*q);
  if (last->next.load() != nullptr) return;  // already lagging
  last->next.store(whitebox::make_node(
      *q, 1'000'000 + lagged_nodes.fetch_add(1, std::memory_order_relaxed),
      no_tid, tid));
}

class FpsPatienceBound : public FpsProgressTest {
 protected:
  void SetUp() override {
    FpsProgressTest::SetUp();
    for (auto& a : fast_attempts) a.store(0, std::memory_order_relaxed);
    lag_tail_of.store(nullptr);
    lagged_nodes.store(0);
  }
  void TearDown() override {
    lag_tail_of.store(nullptr);
    FpsProgressTest::TearDown();
  }
  static std::uint64_t attempts(std::uint32_t tid) {
    return fast_attempts[tid].load(std::memory_order_relaxed);
  }
};

TEST_F(FpsPatienceBound, ZeroPatienceMeansPureSlowPath) {
  wf_queue_fps<std::uint64_t, hp_domain, counting_slow_options> q(1);
  q.enqueue(7, 0);
  auto v = q.dequeue(0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7u);
  EXPECT_EQ(attempts(0), 0u) << "max_tries 0 must skip the fast path";
  const auto ps = q.path_counters(0);
  EXPECT_EQ(ps.slow_enqs, 1u);
  EXPECT_EQ(ps.slow_deqs, 1u);
  EXPECT_EQ(ps.fast_enqs + ps.fast_deqs, 0u);
}

TEST_F(FpsPatienceBound, FastAttemptsPerOpNeverExceedMaxTriesUnderStalledPeer) {
  // Stalled-thread schedule: thread 0 announces a slow-path dequeue and
  // freezes at the announce point, leaving its descriptor pending while
  // thread 1 runs — thread 1's operations probe and help it. Every fast
  // attempt of thread 1 meets a lagging tail (the adversary above), so its
  // fast loops spend their whole budget. The per-operation fast-path
  // attempt count must reach, and never exceed, the compile-time
  // max_tries, and thread 1 must keep completing operations (wait-freedom
  // does not hinge on thread 0).
  counting_fps q(2);
  gate_open.store(false);
  frozen_tid.store(0);
  std::optional<std::uint64_t> frozen_result;
  std::thread frozen(
      [&] { frozen_result = testing::whitebox::announce_deq(q, 0); });
  while (!is_frozen.load()) std::this_thread::yield();

  lag_tail_of.store(&q, std::memory_order_release);
  std::uint64_t completed = 0;
  std::uint64_t most = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    std::uint64_t before = attempts(1);
    q.enqueue(i, 1);
    const std::uint64_t enq_tries = attempts(1) - before;
    EXPECT_LE(enq_tries, fps_options::max_tries)
        << "enqueue " << i << " exceeded max_tries fast attempts";
    before = attempts(1);
    if (q.dequeue(1).has_value()) ++completed;
    const std::uint64_t deq_tries = attempts(1) - before;
    EXPECT_LE(deq_tries, fps_options::max_tries)
        << "dequeue " << i << " exceeded max_tries fast attempts";
    most = std::max({most, enq_tries, deq_tries});
  }
  lag_tail_of.store(nullptr);
  EXPECT_EQ(most, fps_options::max_tries) << "the budget was never spent";
  EXPECT_GT(completed, 0u);

  gate_open.store(true);
  frozen.join();
  // The frozen dequeue was helped: it consumed at most one element.
  std::uint64_t drained = 0;
  while (q.dequeue(1).has_value()) ++drained;
  EXPECT_EQ(completed + drained + (frozen_result.has_value() ? 1 : 0),
            500u + lagged_nodes.load());
}

// ------------------------------------------- compile-time budget sweep

// The fast-path budget is the compile-time max_tries, so each budget is its
// own queue type. budget_hooks<N> counts fast attempts and, while armed,
// plays the lagging-tail adversary above against a single-threaded queue:
// nothing races its steps, and the tail is never retired under them.
template <std::uint32_t N>
struct budget_hooks {
  static inline std::atomic<std::uint64_t> attempts{0};
  static inline std::atomic<void*> lag_tail_of{nullptr};
  static inline std::atomic<std::uint64_t> lagged{0};
  static void after_slow_publish(std::uint32_t /*tid*/, bool /*is_enq*/) {}
  static void on_fast_attempt(std::uint32_t tid, bool is_enq);
};
template <std::uint32_t N>
struct budget_options : fps_options {
  using hooks = budget_hooks<N>;
  static constexpr std::uint32_t max_tries = N;
};
template <std::uint32_t N>
using budget_fps = wf_queue_fps<std::uint64_t, hp_domain, budget_options<N>>;

template <std::uint32_t N>
void budget_hooks<N>::on_fast_attempt(std::uint32_t tid, bool /*is_enq*/) {
  attempts.fetch_add(1, std::memory_order_relaxed);
  auto* q = static_cast<budget_fps<N>*>(
      lag_tail_of.load(std::memory_order_acquire));
  if (q == nullptr) return;
  using testing::whitebox;
  typename budget_fps<N>::node_type* last = whitebox::tail(*q);
  if (last->next.load() != nullptr) return;  // already lagging
  last->next.store(whitebox::make_node(
      *q, 1'000'000 + lagged.fetch_add(1, std::memory_order_relaxed), no_tid,
      tid));
}

template <typename Budget>
class FpsBudget : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kTries = Budget::value;
  using hooks = budget_hooks<kTries>;
  using queue = budget_fps<kTries>;

  void SetUp() override {
    hooks::attempts.store(0);
    hooks::lag_tail_of.store(nullptr);
    hooks::lagged.store(0);
  }
  void TearDown() override { hooks::lag_tail_of.store(nullptr); }
  static std::uint64_t attempts() { return hooks::attempts.load(); }
};
using Budgets = ::testing::Types<std::integral_constant<std::uint32_t, 1>,
                                 std::integral_constant<std::uint32_t, 2>,
                                 std::integral_constant<std::uint32_t, 5>>;
TYPED_TEST_SUITE(FpsBudget, Budgets);

TYPED_TEST(FpsBudget, LaggingTailSpendsExactlyMaxTriesThenAnnounces) {
  constexpr std::uint64_t kOps = 50;
  constexpr std::uint64_t kMaxTries = TestFixture::kTries;
  typename TestFixture::queue q(1);
  TestFixture::hooks::lag_tail_of.store(&q, std::memory_order_release);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t before = TestFixture::attempts();
    q.enqueue(i, 0);
    EXPECT_EQ(TestFixture::attempts() - before, kMaxTries) << "enqueue " << i;
  }
  // Every enqueue met a lagging tail on each attempt: all went slow, and
  // each attempt linked one adversary node.
  const fps_path_stats ps = q.path_counters(0);
  EXPECT_EQ(ps.fast_enqs, 0u);
  EXPECT_EQ(ps.slow_enqs, kOps);
  EXPECT_EQ(TestFixture::hooks::lagged.load(), kOps * kMaxTries);

  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t before = TestFixture::attempts();
    EXPECT_TRUE(q.dequeue(0).has_value());
    EXPECT_LE(TestFixture::attempts() - before, kMaxTries) << "dequeue " << i;
  }
  TestFixture::hooks::lag_tail_of.store(nullptr);

  // Conservation and FIFO of the test's own items among the adversary's.
  std::uint64_t items = kOps;
  std::uint64_t next = 0;
  std::vector<std::uint64_t> rest;
  while (auto v = q.dequeue(0)) rest.push_back(*v);
  items += rest.size();
  for (std::uint64_t v : rest) {
    if (v < 1'000'000) {
      EXPECT_GE(v, next);
      next = v + 1;
    }
  }
  EXPECT_EQ(items, kOps + TestFixture::hooks::lagged.load());
}

TYPED_TEST(FpsBudget, CalmQueueCompletesEachOperationOnItsFirstFastAttempt) {
  constexpr std::uint64_t kOps = 100;
  typename TestFixture::queue q(2);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    std::uint64_t before = TestFixture::attempts();
    q.enqueue(i, i % 2);
    EXPECT_EQ(TestFixture::attempts() - before, 1u) << "enqueue " << i;
    before = TestFixture::attempts();
    EXPECT_EQ(q.dequeue((i + 1) % 2), std::optional<std::uint64_t>(i));
    EXPECT_EQ(TestFixture::attempts() - before, 1u) << "dequeue " << i;
  }
  const std::uint64_t before = TestFixture::attempts();
  EXPECT_EQ(q.dequeue(0), std::nullopt);  // empty, decided on the fast path
  EXPECT_EQ(TestFixture::attempts() - before, 1u);
  const fps_path_stats ps = q.aggregate_path_counters();
  EXPECT_EQ(ps.fast_enqs, kOps);
  EXPECT_EQ(ps.fast_deqs, kOps + 1);
  EXPECT_EQ(ps.slow_enqs + ps.slow_deqs, 0u);
}

TEST(FpsMemory, BalanceClosesExactly) {
  mem_counters mc;
  {
    fps_queue q(4, &mc);
    spin_barrier barrier(4);
    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < 4; ++tid) {
      workers.emplace_back([&, tid] {
        barrier.arrive_and_wait();
        for (std::uint64_t i = 0; i < 2000; ++i) {
          q.enqueue(encode_value(tid, i), tid);
          (void)q.dequeue(tid);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

TEST(FpsReclamation, NodesAreFreedDuringTheRun) {
  fps_queue q(2);
  const auto threshold = q.reclaimer().scan_threshold();
  for (std::uint64_t i = 0; i < threshold * 4; ++i) {
    q.enqueue(i, 0);
    ASSERT_TRUE(q.dequeue(0).has_value());
  }
  EXPECT_GT(q.reclaimer().freed_count(), 0u);
}

}  // namespace
}  // namespace kpq
