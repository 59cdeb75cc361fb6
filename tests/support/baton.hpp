// Baton scheduler: explores interleavings of the queue code that ships.
//
// A queue whose Options::hooks includes baton::hook calls
// baton::sched_point before every shared access (core/wf_queue.hpp,
// sched_site); its events are not scheduling points. A scenario's worker
// threads are created once and reused across schedules; only the worker
// holding the baton runs. At each scheduling point the holder asks a
// chooser which worker goes next and, if it is another one, hands the
// baton over and parks. The code between two points holds at most one
// shared access of the queue, so each schedule is a sequentially consistent
// interleaving of the real operations at shared-access granularity. A
// hazard-pointer protect (announce + validate) and a reclamation scan each
// run as one step.
//
// Two choosers:
//   * dfs_chooser — exhaustive, stateless DFS with a preemption bound
//     (iterative context bounding, Musuvathi & Qadeer, PLDI'07): every
//     schedule that switches away from a still-running worker at most
//     `bound` times is run once, replayed from scratch;
//   * random_chooser — uniform over the runnable workers at every point,
//     from a seed (the fuzzers).
//
// Every run leaves a replayable schedule string (baton::schedule()):
// "decision:worker" pairs wherever the pick differs from the default
// (keep the current worker; after a worker finishes, the lowest runnable
// one). replay_chooser runs exactly that schedule again.
//
// Worker bodies must not use gtest assertions: they record outcomes for
// the calling thread to check once run() returns.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/wf_queue.hpp"
#include "harness/workload.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "support/hooks.hpp"
#include "sync/cacheline.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq::testing {

/// Picks the worker that runs next. `current` is the worker at a
/// scheduling point, or baton::none at the start of a schedule and after a
/// worker returned; `runnable` is the non-empty bitmask of workers whose
/// body has not returned (current, if any, is among them).
class chooser {
 public:
  virtual ~chooser() = default;
  virtual std::uint32_t pick(std::uint32_t current, std::uint32_t runnable) = 0;
};

/// One sched_point call of a run: which worker, at which site.
struct sched_step {
  std::uint32_t worker;
  sched_site site;
  bool operator==(const sched_step&) const = default;
};

class baton {
 public:
  static constexpr std::uint32_t none = ~std::uint32_t{0};
  /// A run taking more decisions than this is livelocked: it prints its
  /// schedule and aborts (a parked worker cannot be unwound).
  static constexpr std::uint64_t max_decisions = 2'000'000;

  /// 1 to 32 workers (the runnable set is a bitmask).
  explicit baton(std::uint32_t workers) : n_(workers), turn_(workers) {
    assert(workers >= 1 && workers <= 32);
    try {
      for (std::uint32_t w = 0; w < n_; ++w) {
        threads_.emplace_back([this, w] { worker_main(w); });
      }
    } catch (...) {
      shut_down();
      throw;
    }
  }

  baton(const baton&) = delete;
  baton& operator=(const baton&) = delete;

  ~baton() { shut_down(); }

  std::uint32_t workers() const noexcept { return n_; }

  /// Runs body(w) on every worker w, interleaved as `c` picks; returns once
  /// every body returned. Everything the bodies did is visible afterwards.
  void run(const std::function<void(std::uint32_t)>& body, chooser& c) {
    body_ = &body;
    chooser_ = &c;
    runnable_ = n_ == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << n_) - 1;
    clock_ = 0;
    decisions_ = 0;
    trace_.clear();
    schedule_.clear();
    done_.store(0, std::memory_order_relaxed);
    pass(decide(none));
    while (done_.load(std::memory_order_acquire) == 0) {
      done_.wait(0, std::memory_order_acquire);
    }
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

  /// Logical clock for histories, strictly increasing within a run; every
  /// scheduling point ticks it too. Call only from a worker body.
  std::uint64_t stamp() noexcept { return ++clock_; }

  /// The last run's replayable schedule ("" = the default schedule).
  const std::string& schedule() const noexcept { return schedule_; }
  /// Every sched_point of the last run.
  const std::vector<sched_step>& trace() const noexcept { return trace_; }

  /// A scheduling point of the calling worker; a no-op outside a worker
  /// body.
  static void sched_point(std::uint32_t /*tid*/, sched_site site) {
    if (self_ != nullptr) self_->at_point(me_, site);
  }

  /// The queue hook: stateless, so a queue holding it spawns no threads.
  struct hook : no_hooks {
    static void sched_point(std::uint32_t tid, sched_site site) {
      baton::sched_point(tid, site);
    }
  };

  /// The pick a schedule string leaves out: keep the current worker, or
  /// after one returned, the lowest runnable.
  static std::uint32_t default_pick(std::uint32_t current,
                                    std::uint32_t runnable) noexcept {
    return current != none ? current
                           : static_cast<std::uint32_t>(
                                 std::countr_zero(runnable));
  }

 private:
  void worker_main(std::uint32_t w) {
    self_ = this;
    me_ = w;
    for (;;) {
      await_turn(w);
      if (stop_) return;
      try {
        (*body_)(w);
      } catch (...) {
        error_ = std::current_exception();  // run() rethrows it
      }
      runnable_ &= ~(std::uint32_t{1} << w);
      if (runnable_ == 0) {
        done_.store(1, std::memory_order_release);
        done_.notify_one();
      } else {
        pass(decide(none));
      }
    }
  }

  void at_point(std::uint32_t w, sched_site site) {
    trace_.push_back({w, site});
    ++clock_;
    const std::uint32_t next = decide(w);
    if (next == w) return;
    pass(next);
    await_turn(w);
  }

  /// One decision: ask the chooser, keep the schedule string.
  std::uint32_t decide(std::uint32_t current) {
    if (++decisions_ > max_decisions) {
      std::fprintf(stderr, "baton: run exceeded %llu decisions; schedule: %s\n",
                   static_cast<unsigned long long>(max_decisions),
                   schedule_.c_str());
      std::abort();
    }
    const std::uint32_t next = chooser_->pick(current, runnable_);
    if (next >= n_ || (runnable_ & (std::uint32_t{1} << next)) == 0) {
      std::fprintf(stderr, "baton: chooser picked worker %u, not runnable\n",
                   next);
      std::abort();
    }
    if (next != default_pick(current, runnable_)) {
      if (!schedule_.empty()) schedule_ += ' ';
      schedule_ += std::to_string(decisions_ - 1) + ':' + std::to_string(next);
    }
    return next;
  }

  void shut_down() {
    stop_ = true;
    for (std::size_t w = 0; w < threads_.size(); ++w) {
      pass(static_cast<std::uint32_t>(w));
    }
    for (auto& t : threads_) t.join();
  }

  void pass(std::uint32_t w) {
    turn_[w]->store(1, std::memory_order_release);
    turn_[w]->notify_one();
  }
  void await_turn(std::uint32_t w) {
    while (turn_[w]->load(std::memory_order_acquire) == 0) {
      turn_[w]->wait(0, std::memory_order_acquire);
    }
    turn_[w]->store(0, std::memory_order_relaxed);
  }

  static inline thread_local baton* self_ = nullptr;
  static inline thread_local std::uint32_t me_ = 0;

  const std::uint32_t n_;
  std::vector<padded<std::atomic<std::uint32_t>>> turn_;
  std::atomic<std::uint32_t> done_{0};
  // Written only by the baton holder (or the caller between runs).
  bool stop_ = false;
  const std::function<void(std::uint32_t)>* body_ = nullptr;
  chooser* chooser_ = nullptr;
  std::uint32_t runnable_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t decisions_ = 0;
  std::vector<sched_step> trace_;
  std::string schedule_;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;  // last: started once the rest exists
};

/// Explored queues: the baton as hook, plus the stats counters the
/// coverage assertions read (helped_*_completions).
struct baton_options : wf_options {
  using hooks = compose<baton::hook, wf_stats>;
};

/// hp_domain that scans on every retirement, so reclamation runs inside
/// explored schedules (the default threshold, 2H + 64, never fires there).
struct eager_hp_domain : hp_domain {
  eager_hp_domain(std::uint32_t max_threads, std::uint32_t slots)
      : hp_domain(max_threads, slots, /*scan_threshold=*/1) {}
};

// ------------------------------------------------------------- choosers

/// Preemption-bounded DFS. Run a schedule with it, then advance(); false
/// means every schedule within the bound has run.
class dfs_chooser : public chooser {
 public:
  explicit dfs_chooser(std::uint32_t preemption_bound)
      : bound_(preemption_bound) {}

  std::uint32_t pick(std::uint32_t current, std::uint32_t runnable) override {
    if (depth_ < stack_.size()) {
      decision& d = stack_[depth_++];
      if (d.current != current || d.runnable != runnable) diverged_ = true;
      return d.chosen;
    }
    const std::uint32_t chosen = baton::default_pick(current, runnable);
    stack_.push_back({current, runnable, chosen,
                      std::uint32_t{1} << chosen, preemptions_before()});
    ++depth_;
    return chosen;
  }

  /// Backtrack to the deepest decision with an untried pick inside the
  /// bound; false when none is left.
  bool advance() {
    depth_ = 0;
    while (!stack_.empty()) {
      decision& d = stack_.back();
      std::uint32_t untried = d.runnable & ~d.tried;
      while (untried != 0) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(untried));
        untried &= untried - 1;
        d.tried |= std::uint32_t{1} << w;
        const std::uint32_t cost = d.current != baton::none && w != d.current;
        if (d.preempted_before + cost <= bound_) {
          d.chosen = w;
          return true;
        }
      }
      stack_.pop_back();
    }
    return false;
  }

  /// A replayed prefix met a different (current, runnable) than it
  /// recorded: the code under test is not deterministic per schedule.
  bool diverged() const noexcept { return diverged_; }

 private:
  struct decision {
    std::uint32_t current;
    std::uint32_t runnable;
    std::uint32_t chosen;
    std::uint32_t tried;
    std::uint32_t preempted_before;
  };

  std::uint32_t preemptions_before() const noexcept {
    if (stack_.empty()) return 0;
    const decision& d = stack_.back();
    return d.preempted_before +
           (d.current != baton::none && d.chosen != d.current);
  }

  std::uint32_t bound_;
  std::vector<decision> stack_;
  std::size_t depth_ = 0;
  bool diverged_ = false;
};

/// Uniform over the runnable workers at every decision.
class random_chooser : public chooser {
 public:
  explicit random_chooser(std::uint64_t seed) : rng_(seed) {}

  std::uint32_t pick(std::uint32_t /*current*/,
                     std::uint32_t runnable) override {
    auto k = static_cast<int>(rng_.next() %
                              static_cast<std::uint64_t>(
                                  std::popcount(runnable)));
    for (; k > 0; --k) runnable &= runnable - 1;
    return static_cast<std::uint32_t>(std::countr_zero(runnable));
  }

 private:
  fast_rng rng_;
};

/// Runs a recorded baton::schedule() string again.
class replay_chooser : public chooser {
 public:
  explicit replay_chooser(const std::string& schedule) {
    std::istringstream in(schedule);
    std::uint64_t at = 0;
    char colon = 0;
    std::uint32_t w = 0;
    while (in >> at >> colon >> w) picks_.push_back({at, w});
  }

  std::uint32_t pick(std::uint32_t current, std::uint32_t runnable) override {
    const std::uint64_t at = decision_++;
    if (next_ < picks_.size() && picks_[next_].first == at) {
      return picks_[next_++].second;
    }
    return baton::default_pick(current, runnable);
  }

 private:
  std::vector<std::pair<std::uint64_t, std::uint32_t>> picks_;
  std::size_t next_ = 0;
  std::uint64_t decision_ = 0;
};

// ------------------------------------------------------------- scenarios

/// One operation of a worker's program.
struct op_spec {
  bool is_enq;
  std::uint64_t value = 0;  // enqueue only
};
using program = std::vector<op_spec>;

/// Runs one schedule of `progs` (one per worker) on `q`: worker w runs
/// progs[w] as tid w.
/// Returns the operations' history, stamped by the baton clock shifted by
/// `base`.
template <typename Q>
std::vector<op_event> run_programs(baton& b, chooser& c, Q& q,
                                   const std::vector<program>& progs,
                                   std::uint64_t base = 0) {
  std::vector<std::vector<op_event>> logs(progs.size());
  b.run(
      [&](std::uint32_t w) {
        for (const op_spec& op : progs[w]) {
          const std::uint64_t inv = base + b.stamp();
          if (op.is_enq) {
            q.enqueue(op.value, w);
            logs[w].push_back(
                {op_kind::enq, true, w, op.value, inv, base + b.stamp()});
          } else {
            const std::optional<std::uint64_t> v = q.dequeue(w);
            logs[w].push_back({op_kind::deq, v.has_value(), w, v.value_or(0),
                               inv, base + b.stamp()});
          }
        }
      },
      c);
  std::vector<op_event> h;
  for (auto& l : logs) h.insert(h.end(), l.begin(), l.end());
  return h;
}

/// Sequential enqueues of 1000, 1001, ... by `tid` before a run, as history
/// events stamped 0..2n-1 (pass base = 2n to run_programs).
template <typename Q>
std::vector<op_event> prefill(Q& q, std::uint64_t n, std::uint32_t tid) {
  std::vector<op_event> h;
  for (std::uint64_t i = 0; i < n; ++i) {
    q.enqueue(1000 + i, tid);
    h.push_back({op_kind::enq, true, tid, 1000 + i, 2 * i, 2 * i + 1});
  }
  return h;
}

/// Dequeues by `tid` until empty after a run; appends them, and the empty
/// dequeue that ends the drain, to `h` as sequential events after every
/// stamp in it and returns the values. The empty one is what lets the
/// checker see an item that a completed enqueue never put in the queue.
template <typename Q>
std::vector<std::uint64_t> drain(Q& q, std::uint32_t tid,
                                 std::vector<op_event>* h = nullptr) {
  std::vector<std::uint64_t> out;
  std::uint64_t ts = 0;
  if (h != nullptr) {
    for (const op_event& e : *h) ts = std::max(ts, e.res + 1);
  }
  while (auto v = q.dequeue(tid)) {
    out.push_back(*v);
    if (h != nullptr) {
      h->push_back({op_kind::deq, true, tid, *v, ts, ts + 1});
      ts += 2;
    }
  }
  if (h != nullptr) h->push_back({op_kind::deq, false, tid, 0, ts, ts + 1});
  return out;
}

/// One exhaustively explored schedule: `prefill` items enqueued by `aux`,
/// the programs under `c`, a drain by `aux`, then the exact
/// linearizability check over the whole history. Returns "" or the failure.
template <typename Q>
std::string run_checked(baton& b, chooser& c, Q& q,
                        const std::vector<program>& progs,
                        std::uint64_t prefill_n, std::uint32_t aux) {
  std::vector<op_event> h = prefill(q, prefill_n, aux);
  const std::vector<op_event> ops = run_programs(b, c, q, progs, 2 * prefill_n);
  h.insert(h.end(), ops.begin(), ops.end());
  drain(q, aux, &h);
  return lin_checker::is_linearizable(h) ? "" : "non-linearizable history";
}

/// The preemption bound the exhaustive suites use: three for two workers,
/// two for three (a third preemption multiplies a three-worker space ~20x).
constexpr std::uint32_t preemption_bound(std::size_t workers) noexcept {
  return workers <= 2 ? 3 : 2;
}

/// Exhaustive mode: one_run(c) once per schedule within the preemption
/// bound. one_run returns "" or a failure message; the first failure stops
/// the search and comes back with its schedule string.
struct explore_report {
  std::uint64_t schedules = 0;
  std::string failure;
};

template <typename OneRun>
explore_report explore(baton& b, std::uint32_t preemption_bound,
                       OneRun&& one_run) {
  dfs_chooser c(preemption_bound);
  explore_report r;
  do {
    ++r.schedules;
    std::string err = one_run(c);
    if (err.empty() && c.diverged()) err = "replay diverged";
    if (!err.empty()) {
      r.failure = err + " (schedule \"" + b.schedule() + "\", #" +
                  std::to_string(r.schedules) + ")";
      return r;
    }
  } while (c.advance());
  return r;
}

}  // namespace kpq::testing
