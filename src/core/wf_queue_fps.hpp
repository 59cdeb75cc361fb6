// Fast-path/slow-path wait-free queue: wf_queue with the ms_fast_path policy
// (core/wf_queue.hpp has the design; docs/ALGORITHM.md §4.1 the wait-freedom
// argument) in front of the paper's slow path, run with help_one +
// fetch_add_phase.
//
// This header keeps the FPS options vocabulary — patience, hooks and
// residency — and maps it onto the core's wf_options.
#pragma once

#include <cstdint>

#include "core/wf_queue.hpp"

namespace kpq {

struct fps_options {
  /// Test hooks (wf_options::hooks): sched_site::after_publish fires at the
  /// slow-path announce, sched_site::fast_attempt once per fast attempt.
  using hooks = no_hooks;
  /// Fast-path attempts before announcing on the slow path — the paper's
  /// MAX_FAILURES patience; 0 sends every operation to the slow path.
  static constexpr std::uint32_t max_tries = 8;
  /// Item-residency policy (obs/residency.hpp); no_residency keeps the node
  /// stamp-free. Detected structurally, so pre-existing options structs
  /// without the member keep compiling (they get no_residency).
  using residency = obs::no_residency;
};

/// Item-residency tracking on for the fast-path/slow-path queue.
struct fps_options_residency : fps_options {
  using residency = obs::tick_residency;
};

/// An fps_options struct mapped onto the core's options.
template <typename O>
struct fps_core_options : wf_options {
  using hooks = typename O::hooks;
  using residency = obs::residency_policy_t<O>;
  using fast_path = ms_fast_path<O::max_tries>;
};

template <typename T, typename Reclaimer = hp_domain,
          typename Options = fps_options,
          typename Storage = heap_node_storage<
              T, wf_node<T, obs::residency_policy_t<Options>::enabled>>>
using wf_queue_fps = wf_queue<T, help_one, fetch_add_phase, Reclaimer,
                              fps_core_options<Options>, Storage>;

}  // namespace kpq
