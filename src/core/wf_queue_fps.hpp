// Fast-path/slow-path wait-free queue: wf_queue with the ms_fast_path policy
// (core/wf_queue.hpp has the design; docs/ALGORITHM.md §4.1 the wait-freedom
// argument) in front of the paper's slow path, run with help_one +
// fetch_add_phase.
#pragma once

#include "core/wf_queue.hpp"

namespace kpq {

/// The core's options with an 8-attempt fast path — the paper's MAX_FAILURES
/// patience. Derive and set `using fast_path = ms_fast_path<N>;` for another
/// budget (0 sends every operation to the slow path); a hook sees the
/// event wf_event::fast_attempt once per fast attempt and the publish
/// events at the slow-path announce.
struct fps_options : wf_options {
  using fast_path = ms_fast_path<8>;
};

template <typename T, typename Reclaimer = hp_domain,
          typename Options = fps_options,
          typename Storage = heap_node_storage<T>>
using wf_queue_fps =
    wf_queue<T, help_one, fetch_add_phase, Reclaimer, Options, Storage>;

}  // namespace kpq
