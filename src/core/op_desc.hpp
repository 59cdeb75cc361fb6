// Node and operation-descriptor records of the KP wait-free queue
// (paper Figure 1, lines 1–24), ported to unmanaged C++.
//
// Both records are *immutable after publication* with two exceptions that the
// paper itself makes atomic: `node::next` (set once, null -> non-null, by the
// winning enqueue CAS, paper line 74) and `node::deq_tid` (set once,
// -1 -> tid, by the winning dequeue CAS, paper line 135). Descriptor fields
// are all written before the descriptor is published through the `state`
// array, so any descriptor reached through a protected load is a consistent
// snapshot — the property the whole helping scheme leans on.
//
// C++ port changes (paper §3.4):
//   * op_desc carries `value`, the payload removed by a dequeue, so that
//     deq() never needs to chase `node->next->value` through a node that may
//     already have been retired. help_finish_deq() fills it in while the
//     successor node is still hazard-protected.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

namespace kpq {

/// Sentinel thread id meaning "no thread" (paper's -1).
inline constexpr std::int32_t no_tid = -1;

/// Sentinel phase carried by the initial descriptors (paper line 33 uses -1).
inline constexpr std::int64_t no_phase = -1;

template <typename T>
struct wf_node {
  T value;
  std::atomic<wf_node*> next{nullptr};
  std::int32_t enq_tid;                  // paper: enqTid, written once pre-publication
  std::atomic<std::int32_t> deq_tid{no_tid};  // paper: deqTid, -1 -> tid once

  wf_node(T v, std::int32_t etid) : value(std::move(v)), enq_tid(etid) {}
};

template <typename T>
struct op_desc {
  std::int64_t phase;           // paper: phase
  bool pending;                 // paper: pending
  bool enqueue;                 // paper: enqueue
  wf_node<T>* node;             // paper: node (meaning depends on op type, see §3.2)
  T value{};                    // C++ port (§3.4): payload of a completed dequeue

  op_desc(std::int64_t ph, bool pend, bool enq, wf_node<T>* n)
      : phase(ph), pending(pend), enqueue(enq), node(n) {}

  op_desc(std::int64_t ph, bool pend, bool enq, wf_node<T>* n, T val)
      : phase(ph), pending(pend), enqueue(enq), node(n), value(std::move(val)) {}
};

}  // namespace kpq
