// Fast-path/slow-path wait-free queue: wf_queue with the ms_fast_path policy
// (core/wf_queue.hpp has the design; docs/ALGORITHM.md §4.1 the wait-freedom
// argument) in front of the paper's slow path, run with help_one +
// fetch_add_phase.
//
// This header keeps the FPS options vocabulary — patience and hooks that
// fire at the slow-path announce — and maps it onto the core's wf_options.
#pragma once

#include <cstdint>

#include "core/wf_queue.hpp"

namespace kpq {

/// Hooks for the fast-path/slow-path queue (progress tests stall threads at
/// the slow-path announce point, exactly as for wf_queue). A hooks struct
/// may additionally provide `on_fast_attempt(tid, is_enq)` — called once
/// per fast-path attempt; the step-bound tests count these to prove no
/// operation makes more than max_tries fast attempts.
struct fps_no_hooks {
  static void after_slow_publish(std::uint32_t /*tid*/, bool /*is_enq*/) {}
  static void on_fast_attempt(std::uint32_t /*tid*/, bool /*is_enq*/) {}
};

struct fps_options {
  using hooks = fps_no_hooks;
  /// Fast-path attempts before announcing on the slow path — the paper's
  /// MAX_FAILURES patience; 0 sends every operation to the slow path.
  static constexpr std::uint32_t max_tries = 8;
  static constexpr bool descriptor_cache = true;
  /// Item-residency policy (obs/residency.hpp); no_residency keeps the node
  /// stamp-free. Detected structurally, so pre-existing options structs
  /// without the member keep compiling (they get no_residency).
  using residency = obs::no_residency;
};

/// Item-residency tracking on for the fast-path/slow-path queue.
struct fps_options_residency : fps_options {
  using residency = obs::tick_residency;
};

/// FPS hooks seen through the core's interface: the core's announce hook is
/// the slow-path publish; on_fast_attempt is inherited when present.
template <typename Hooks>
struct fps_hooks : Hooks {
  static void after_publish(std::uint32_t tid, bool is_enq) {
    Hooks::after_slow_publish(tid, is_enq);
  }
};

/// An fps_options struct mapped onto the core's options.
template <typename O>
struct fps_core_options : wf_options {
  using hooks = fps_hooks<typename O::hooks>;
  using residency = obs::residency_policy_t<O>;
  static constexpr bool descriptor_cache = O::descriptor_cache;
  using fast_path = ms_fast_path<O::max_tries>;
};

template <typename T, typename Reclaimer = hp_domain,
          typename Options = fps_options,
          typename Storage = heap_node_storage<
              T, wf_node<T, obs::residency_policy_t<Options>::enabled>>>
using wf_queue_fps = wf_queue<T, help_one, fetch_add_phase, Reclaimer,
                              fps_core_options<Options>, Storage>;

}  // namespace kpq
