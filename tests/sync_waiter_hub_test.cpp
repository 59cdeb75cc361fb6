// Unit and stress tests for the continuation layer (sync/waiter_hub.hpp):
// enlist/delist bookkeeping, the two-phase notify with token pass-on over
// claimed waiters, thread_parker park/notify/timeout semantics, and a
// Dekker-pairing stress proving no lost wakeups under enqueue-style
// notify-if-maybe-waiters traffic.
#include "sync/waiter_hub.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace kpq {
namespace {

using namespace std::chrono_literals;

// A scriptable continuation: accepts or refuses the token on demand.
class fake_waiter final : public waiter_hub::waiter {
 public:
  explicit fake_waiter(bool accepts = true) : accepts_(accepts) {}
  int accept_calls = 0;
  int resume_calls = 0;

 private:
  waiter_hub::accept_result try_accept() noexcept override {
    ++accept_calls;
    return accepts_ ? waiter_hub::accept_result::needs_resume
                    : waiter_hub::accept_result::refused;
  }
  void resume() noexcept override { ++resume_calls; }
  bool accepts_;
};

TEST(WaiterHub, EnlistDelistCounts) {
  waiter_hub hub;
  EXPECT_FALSE(hub.maybe_waiters());
  fake_waiter a, b;
  {
    auto lk = hub.lock();
    hub.enlist(a, lk);
    hub.enlist(b, lk);
    EXPECT_TRUE(a.linked());
    EXPECT_TRUE(b.linked());
  }
  EXPECT_TRUE(hub.maybe_waiters());
  {
    auto lk = hub.lock();
    EXPECT_TRUE(hub.delist(a, lk));
    EXPECT_FALSE(hub.delist(a, lk));  // second delist is a no-op
    EXPECT_TRUE(hub.delist(b, lk));
  }
  EXPECT_FALSE(hub.maybe_waiters());
}

TEST(WaiterHub, NotifyOneResumesInFifoOrder) {
  waiter_hub hub;
  fake_waiter a, b;
  {
    auto lk = hub.lock();
    hub.enlist(a, lk);
    hub.enlist(b, lk);
  }
  hub.notify_one();
  EXPECT_EQ(a.resume_calls, 1);
  EXPECT_EQ(b.resume_calls, 0);
  EXPECT_FALSE(a.linked());
  hub.notify_one();
  EXPECT_EQ(b.resume_calls, 1);
  hub.notify_one();  // empty hub: token evaporates, no crash
}

TEST(WaiterHub, RefusedTokenPassesToNextWaiter) {
  // The lost-wakeup guard: a waiter whose continuation was already claimed
  // (cancel/timeout) must NOT consume the notification.
  waiter_hub hub;
  fake_waiter cancelled(false), live(true);
  {
    auto lk = hub.lock();
    hub.enlist(cancelled, lk);
    hub.enlist(live, lk);
  }
  hub.notify_one();
  EXPECT_EQ(cancelled.accept_calls, 1);
  EXPECT_EQ(cancelled.resume_calls, 0);  // refused -> never resumed
  EXPECT_EQ(live.resume_calls, 1);       // token moved on to the next
  EXPECT_FALSE(cancelled.linked());      // but it IS off the list
  EXPECT_FALSE(hub.maybe_waiters());
}

TEST(WaiterHub, NotifyAllResumesEveryAcceptingWaiter) {
  waiter_hub hub;
  fake_waiter a, b(false), c;
  {
    auto lk = hub.lock();
    hub.enlist(a, lk);
    hub.enlist(b, lk);
    hub.enlist(c, lk);
  }
  hub.notify_all();
  EXPECT_EQ(a.resume_calls, 1);
  EXPECT_EQ(b.resume_calls, 0);
  EXPECT_EQ(c.resume_calls, 1);
  EXPECT_FALSE(hub.maybe_waiters());
}

TEST(WaiterHub, StatsCountParksAndNotifies) {
  waiter_hub hub;
  fake_waiter a;
  {
    auto lk = hub.lock();
    hub.enlist(a, lk);
    hub.commit_park(lk);
  }
  hub.notify_one();
  hub.on_resumed(a);
  const waiter_hub_stats s = hub.stats();
  EXPECT_EQ(s.parks, 1u);
  EXPECT_EQ(s.notifies, 1u);
  EXPECT_EQ(s.resumes, 1u);
  EXPECT_GE(s.resume_ns_max, 0u);
  EXPECT_GE(s.mean_resume_ns(), 0.0);
}

TEST(ThreadParker, ParkWakesOnNotify) {
  waiter_hub hub;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    thread_parker p;
    auto lk = hub.lock();
    hub.enlist(p, lk);
    p.park(hub, lk);
    hub.delist(p, lk);
    woke.store(true);
  });
  while (!hub.maybe_waiters()) std::this_thread::yield();
  hub.notify_one();
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(hub.stats().resumes, 1u);
}

TEST(ThreadParker, ParkUntilTimesOutAndStaysEnlisted) {
  waiter_hub hub;
  thread_parker p;
  auto lk = hub.lock();
  hub.enlist(p, lk);
  // nobody notifies
  EXPECT_FALSE(p.park_until(hub, lk, std::chrono::steady_clock::now() + 2ms));
  EXPECT_TRUE(p.linked());  // timeout keeps registration
  hub.delist(p, lk);
}

TEST(ThreadParker, ParkUntilReturnsTrueWhenNotified) {
  waiter_hub hub;
  std::atomic<bool> got{false};
  std::thread sleeper([&] {
    thread_parker p;
    auto lk = hub.lock();
    hub.enlist(p, lk);
    got.store(p.park_until(hub, lk, std::chrono::steady_clock::now() + 5s));
    hub.delist(p, lk);
  });
  while (!hub.maybe_waiters()) std::this_thread::yield();
  hub.notify_one();
  sleeper.join();
  EXPECT_TRUE(got.load());
}

TEST(ThreadParker, ParkUntilPastDeadlineReturnsFalseAtOnce) {
  waiter_hub hub;
  thread_parker p;
  auto lk = hub.lock();
  hub.enlist(p, lk);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.park_until(hub, lk, t0 - 1s));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_TRUE(p.linked());
  hub.delist(p, lk);
}

TEST(ThreadParker, ParkUntilAfterATimeoutParksAgainAndWakes) {
  // A timed-out parker stays enlisted, so it may park again without
  // re-enlisting, and a notify then reaches it.
  waiter_hub hub;
  std::atomic<bool> timed_out{false}, woke{false};
  std::thread sleeper([&] {
    thread_parker p;
    auto lk = hub.lock();
    hub.enlist(p, lk);
    timed_out.store(
        !p.park_until(hub, lk, std::chrono::steady_clock::now() + 1ms));
    // The lock is held from here until the second park waits, so the
    // notify below can only land on that park.
    woke.store(p.park_until(hub, lk, std::chrono::steady_clock::now() + 5s));
    hub.delist(p, lk);
  });
  while (!timed_out.load()) std::this_thread::yield();
  hub.notify_one();
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(hub.stats().parks, 2u);
  EXPECT_EQ(hub.stats().resumes, 1u);
}

// The Dekker pairing under load: producers bump a counter then notify only
// when maybe_waiters(); consumers enlist, re-check, park. Every produced
// token must eventually be consumed — no sleeper may be stranded while
// work remains.
TEST(WaiterHubStress, NoLostWakeups) {
  waiter_hub hub;
  std::atomic<std::int64_t> work{0};
  std::atomic<bool> closed{false};
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 2000;
  std::atomic<std::int64_t> consumed{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        // fast path
        std::int64_t w = work.load(std::memory_order_seq_cst);
        while (w > 0 && !work.compare_exchange_weak(
                            w, w - 1, std::memory_order_seq_cst)) {
        }
        if (w > 0) {
          consumed.fetch_add(1);
          continue;
        }
        thread_parker p;
        auto lk = hub.lock();
        hub.enlist(p, lk);
        // re-check under registration
        w = work.load(std::memory_order_seq_cst);
        while (w > 0 && !work.compare_exchange_weak(
                            w, w - 1, std::memory_order_seq_cst)) {
        }
        if (w > 0) {
          hub.delist(p, lk);
          consumed.fetch_add(1);
          continue;
        }
        if (closed.load(std::memory_order_seq_cst)) {
          hub.delist(p, lk);
          return;
        }
        p.park(hub, lk);
        hub.delist(p, lk);
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        work.fetch_add(1, std::memory_order_seq_cst);
        if (hub.maybe_waiters()) hub.notify_one();
      }
    });
  }
  for (auto& t : producers) t.join();
  // Drain, then close and broadcast.
  while (consumed.load() < kProducers * kPerProducer) {
    std::this_thread::yield();
  }
  {
    auto lk = hub.lock();
    closed.store(true, std::memory_order_seq_cst);
    hub.notify_all(std::move(lk));
  }
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(work.load(), 0);
}

}  // namespace
}  // namespace kpq
