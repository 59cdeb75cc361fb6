// park: the one claim behind every coroutine wait in src/async.
//
// The paper's dequeue never waits (an empty queue returns), so every
// co_await that suspends is a layer above the wait-free core: a coroutine
// parks on one or more waiter_hubs until exactly one rival claims it. The
// rivals are a notify on any of the hubs (try_accept, under that hub's
// lock), the stop_token's callback, the deadline timer on the executor
// (event_loop::call_at), the waiter's own re-check finding its predicate
// true, and frame teardown (~park), which takes the claim and resumes
// nothing.
//
// They race on one word: a tag (arming, parked, claimed) plus the index of
// the hub whose notify won. The word lives in a make_shared block that
// every node of the wait points to and the timer's callback co-owns, so a
// timer that outlives the frame finds the word claimed and does nothing.
//
// No resume while arming: suspend() enlists on every hub, re-checks,
// commits the park on every hub, arms the stop callback and the timer, and
// only then CASes arming -> parked. A rival that wins while the word reads
// arming resumes nothing (a notify answers accepted_inline); the CAS then
// fails and the awaiter does not suspend. After a successful CAS the
// suspending thread touches nothing in the awaiter, so from then on only
// the winning rival does.
//
// Counting rule (waiter_hub_stats): `parks` counts the waits whose re-check
// missed; `resumes` counts the waits a hub notify claimed.
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <atomic>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stop_token>
#include <vector>

#include "async/event_loop.hpp"
#include "sync/waiter_hub.hpp"

namespace kpq::async::detail {

class park {
 public:
  /// The winner index when no hub notify claimed the wait.
  static constexpr std::size_t no_hub = ~std::size_t{0} >> 2;

  park() = default;
  park(const park&) = delete;
  park& operator=(const park&) = delete;

  /// Destroy-while-suspended: take the claim so no rival resumes the dead
  /// frame, then unhook every node. Contract (docs/ASYNC.md §5): legal only
  /// while no rival that already won is in flight.
  ~park() {
    if (!claim_) return;
    stop_cb_.reset();
    (void)claim_->take(no_hub);
    delist_all();
  }

  /// Park `h` on the `n` hubs `hub_of(0..n-1)` unless `ready()` — the
  /// re-check, run after every enlist — returns true, or a rival claims the
  /// wait while it is arming. Returns whether the coroutine suspended. With
  /// `exec` null a winning rival resumes the coroutine inline on its own
  /// thread; otherwise it posts the handle to the executor. A nonzero
  /// `deadline_ns` arms a timer on `exec`.
  template <typename HubOf, typename Ready>
  bool suspend(std::coroutine_handle<> h, event_loop* exec, std::size_t n,
               HubOf hub_of, Ready ready, const std::stop_token& st,
               std::uint64_t deadline_ns) {
    claim_ = std::make_shared<claim>(h, exec);
    nodes_ = std::vector<node>(n);
    for (std::size_t i = 0; i < n; ++i) {
      node& w = nodes_[i];
      w.c = claim_.get();
      w.hub = &hub_of(i);
      w.idx = i;
      auto lk = w.hub->lock();
      w.hub->enlist(w, lk);  // the seq_cst count bump precedes ready()
    }
    if (ready()) {
      // Only a notify can have won by now; finish() reports which hub.
      (void)claim_->take(no_hub);
      return false;
    }
    for (node& w : nodes_) {
      auto lk = w.hub->lock();
      w.hub->commit_park(lk);
    }
    if (st.stop_possible()) stop_cb_.emplace(st, canceller{claim_.get()});
    if (deadline_ns != 0) {
      assert(exec && "a deadline needs an executor (its timers)");
      exec->call_at(deadline_ns, [c = claim_]() noexcept { c->fire(no_hub); });
    }
    return claim_->publish();
  }

  /// After the wait — resumed, or suspend() returned false: unhook every
  /// node and return the index of the hub whose notify claimed the wait,
  /// or no_hub. Returns no_hub when suspend() never ran.
  std::size_t finish() {
    if (!claim_) return no_hub;
    stop_cb_.reset();  // waits out a stop callback still in flight
    delist_all();
    const std::size_t woke = claim_->winner();
    if (woke != no_hub) nodes_[woke].hub->on_resumed(nodes_[woke]);
    nodes_.clear();
    claim_.reset();
    return woke;
  }

 private:
  struct claim {
    static constexpr std::uint64_t arming = 0, parked = 1, claimed = 2;
    static constexpr std::uint64_t tag_mask = 3;

    claim(std::coroutine_handle<> handle, event_loop* loop) noexcept
        : h(handle), exec(loop) {}

    /// Claim the wait for hub `idx` (no_hub for every other rival). Returns
    /// the tag the winner replaced (arming or parked), or `claimed` when
    /// another rival had already won.
    std::uint64_t take(std::size_t idx) noexcept {
      // kpq-order: acquire pairs-with the acq_rel CAS in take() and
      // publish() (a rival that reads `claimed` stops here)
      std::uint64_t cur = word.load(std::memory_order_acquire);
      while ((cur & tag_mask) != claimed) {
        // kpq-order: acq_rel pairs-with the rivals' take() and publish()
        // CAS — the winner's release publishes the notifier's accept_ts_
        // to the parking thread whose publish() then fails
        if (word.compare_exchange_weak(
                cur, (std::uint64_t{idx} << 2) | claimed,
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          return cur & tag_mask;
        }
      }
      return claimed;
    }

    /// arming -> parked; false when a rival claimed the wait meanwhile.
    bool publish() noexcept {
      std::uint64_t cur = arming;
      // kpq-order: acq_rel pairs-with the rivals' take() CAS — release
      // hands them the armed stop callback and timer; a failure acquires
      // the winner's claim
      return word.compare_exchange_strong(cur, parked,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
    }

    std::size_t winner() const noexcept {
      // kpq-order: acquire pairs-with the winning take() CAS
      const std::uint64_t w = word.load(std::memory_order_acquire);
      assert((w & tag_mask) == claimed);
      return static_cast<std::size_t>(w >> 2);
    }

    /// The stop callback's and the timer's entry: resume only a wait that
    /// had parked.
    void fire(std::size_t idx) noexcept {
      if (take(idx) == parked) dispatch();
    }

    void dispatch() noexcept {
      if (exec) {
        exec->post(h);
      } else {
        h.resume();
      }
    }

    std::atomic<std::uint64_t> word{arming};
    std::coroutine_handle<> h;
    event_loop* exec;
  };

  struct node final : waiter_hub::waiter {
    waiter_hub::accept_result try_accept() noexcept override {
      switch (c->take(idx)) {
        case claim::parked:
          return waiter_hub::accept_result::needs_resume;
        case claim::arming:  // the parking thread finds the claim
          return waiter_hub::accept_result::accepted_inline;
        default:  // another rival owns the wait; pass the token on
          return waiter_hub::accept_result::refused;
      }
    }
    // After the notifier released the hub lock. The frame is alive: only
    // the claim's winner resumes it, and teardown must take the claim.
    void resume() noexcept override { c->dispatch(); }

    claim* c = nullptr;
    waiter_hub* hub = nullptr;
    std::size_t idx = 0;
  };

  struct canceller {
    claim* c;
    void operator()() const noexcept { c->fire(no_hub); }
  };

  void delist_all() noexcept {
    for (node& w : nodes_) {
      auto lk = w.hub->lock();
      w.hub->delist(w, lk);
    }
  }

  std::shared_ptr<claim> claim_{};  // null outside suspend() .. finish()
  std::vector<node> nodes_{};       // one per hub; never reallocated
  std::optional<std::stop_callback<canceller>> stop_cb_{};
};

}  // namespace kpq::async::detail
