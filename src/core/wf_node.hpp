// The node record of the KP wait-free queue (paper Figure 1, lines 1-8),
// ported to unmanaged C++, plus the paper's "no thread" and "no phase"
// sentinels. The paper's other record, the operation descriptor, is an
// in-place announce record in this port (core/announce_record.hpp).
//
// A node is immutable after publication with two exceptions that the paper
// itself makes atomic: `next` (set once, null -> non-null, by the winning
// enqueue CAS, paper line 74) and `deq_tid` (set once, -1 -> tid, by the
// winning dequeue CAS, paper line 135). `value` is never written after
// construction, so the owner of a completed dequeue reads it straight from
// the node its record names (docs/ALGORITHM.md §2(c)).
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

namespace kpq {

/// Sentinel thread id meaning "no thread" (paper's -1).
inline constexpr std::int32_t no_tid = -1;

/// Sentinel phase carried by the initial records (paper line 33 uses -1).
inline constexpr std::int64_t no_phase = -1;

template <typename T>
struct wf_node {
  T value;
  std::atomic<wf_node*> next{nullptr};
  std::int32_t enq_tid;                  // paper: enqTid, written once pre-publication
  std::atomic<std::int32_t> deq_tid{no_tid};  // paper: deqTid, -1 -> tid once

  wf_node(T v, std::int32_t etid) : value(std::move(v)), enq_tid(etid) {}
};

}  // namespace kpq
