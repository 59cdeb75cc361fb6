// Unit tests for the continuation layer (sync/waiter_hub.hpp):
// enlist/delist bookkeeping and the two-phase notify — token pass-on over
// claimed waiters, and inline acceptance. The no-lost-wakeup stress over
// real coroutine waiters is in async_queue_test.cpp.
#include "sync/waiter_hub.hpp"

#include <gtest/gtest.h>

namespace kpq {
namespace {

using verdict = waiter_hub::accept_result;

// A scriptable continuation: answers every try_accept() with `v`.
class fake_waiter final : public waiter_hub::waiter {
 public:
  explicit fake_waiter(verdict v = verdict::needs_resume) : verdict_(v) {}
  int accept_calls = 0;
  int resume_calls = 0;

 private:
  verdict try_accept() noexcept override {
    ++accept_calls;
    return verdict_;
  }
  void resume() noexcept override { ++resume_calls; }
  verdict verdict_;
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
  fake_waiter cancelled(verdict::refused), live;
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
  fake_waiter a, b(verdict::refused), c;
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

TEST(WaiterHub, InlineAcceptConsumesTheTokenWithoutAResume) {
  // A coroutine wait still arming finds the claim itself: the notify is
  // delivered under the lock, and the hub never touches the waiter again.
  waiter_hub hub;
  fake_waiter arming(verdict::accepted_inline), next, last;
  {
    auto lk = hub.lock();
    hub.enlist(arming, lk);
    hub.enlist(next, lk);
  }
  hub.notify_one();
  EXPECT_EQ(arming.accept_calls, 1);
  EXPECT_EQ(arming.resume_calls, 0);
  EXPECT_EQ(next.accept_calls, 0);  // the token was consumed
  EXPECT_EQ(hub.stats().notifies, 1u);
  {
    auto lk = hub.lock();
    hub.enlist(arming, lk);
    hub.enlist(last, lk);
  }
  hub.notify_all();  // inline acceptors stay off the post-unlock fire list
  EXPECT_EQ(arming.resume_calls, 0);
  EXPECT_EQ(next.resume_calls, 1);
  EXPECT_EQ(last.resume_calls, 1);
  EXPECT_EQ(hub.stats().notifies, 4u);
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

}  // namespace
}  // namespace kpq
