// Test-side queue hooks (core/wf_queue.hpp, no_hooks): composition, and a
// step counter.
#pragma once

#include <cstdint>

#include "core/wf_queue.hpp"

namespace kpq::testing {

/// An operation was announced and none of it has run: only peers can
/// complete it while its owner stays here.
constexpr bool is_publish(wf_event e) noexcept {
  return e == wf_event::enq_publish || e == wf_event::deq_publish;
}

/// Several hooks on one queue: each call goes to every part, in order. A
/// part is built from max_threads when its type takes it, and its other
/// members (wf_stats' counters()) stay reachable through the composite.
template <typename... Hs>
struct compose : Hs... {
  explicit compose(std::uint32_t max_threads)
      : Hs(make_hook<Hs>(max_threads))... {}

  void sched_point(std::uint32_t tid, sched_site site) {
    (Hs::sched_point(tid, site), ...);
  }
  void event(std::uint32_t tid, wf_event e, std::int64_t phase,
             std::uint32_t aux) {
    (Hs::event(tid, e, phase, aux), ...);
  }
};

/// Counts the calling thread's scheduling points (explorer steps) between
/// begin() and end(). A tid runs on one thread, so the count is that tid's.
struct step_counter : no_hooks {
  static void sched_point(std::uint32_t /*tid*/, sched_site /*site*/) {
    if (counting_) ++steps_;
  }
  static void begin() noexcept {
    steps_ = 0;
    counting_ = true;
  }
  /// The steps since begin().
  static std::uint64_t end() noexcept {
    counting_ = false;
    return steps_;
  }

 private:
  static inline thread_local bool counting_ = false;
  static inline thread_local std::uint64_t steps_ = 0;
};

}  // namespace kpq::testing
