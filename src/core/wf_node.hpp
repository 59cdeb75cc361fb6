// The node record of the KP wait-free queue (paper Figure 1, lines 1-8),
// ported to unmanaged C++, plus the paper's "no thread" and "no phase"
// sentinels and the queue's head word. The paper's other record, the
// operation descriptor, is an in-place announce record in this port
// (core/announce_record.hpp).
//
// A node is immutable after publication except for `next`, which the paper
// itself makes atomic: set once, null -> non-null, by the winning enqueue
// CAS (paper line 74). `value` is never written after construction, so the
// owner of a completed dequeue reads it straight from the node its record
// names (docs/ALGORITHM.md §2(c)).
//
// The paper's third node field, deqTid (set once, -1 -> tid, by the winning
// dequeue CAS, line 135), lives in the head word instead: a dequeue claims
// the sentinel by CASing the head {first, none} -> {first, tid}, and the
// swing {first, tid} -> {next, none} ends the claim. Only the sentinel was
// ever claimable, so one claimer per head position says what one deqTid per
// node said, and the claim and the swing write one cache line
// (docs/ALGORITHM.md §2(b)).
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "sync/wide_word.hpp"

namespace kpq {

/// Sentinel thread id meaning "no thread" (paper's -1).
inline constexpr std::int32_t no_tid = -1;

/// Sentinel phase carried by the initial records (paper line 33 uses -1).
inline constexpr std::int64_t no_phase = -1;

template <typename T>
struct wf_node {
  T value;
  std::atomic<wf_node*> next{nullptr};
  std::int32_t enq_tid;  // paper: enqTid, written once pre-publication;
                         // 4 B of padding follow (sizeof 24 for 8-byte T)

  wf_node(T v, std::int32_t etid) : value(std::move(v)), enq_tid(etid) {}
};

/// A decoded head word: the sentinel and the slow dequeue that claimed it.
template <typename Node>
struct head_word {
  Node* node = nullptr;
  std::int32_t claimer = no_tid;  // no_tid, or the claiming thread's tid

  bool operator==(const head_word&) const = default;
};

/// The queue's head: one 16-byte CAS word {node, claimer}, read and written
/// through wide_load/wide_cas like the announce records. With `node`
/// hazard-pinned a word never repeats: each head position goes
/// {first, none} -> {first, tid} -> {next, none} at most once, or straight
/// {first, none} -> {next, none}, and head never returns to a pinned node.
template <typename Node>
class head_cell {
 public:
  using word_type = head_word<Node>;

  word_type word() const noexcept { return decode(wide_load(&word_)); }

  bool cas(word_type expected, word_type desired) noexcept {
    return wide_cas(&word_, encode(expected), encode(desired));
  }

 private:
  static wide_word encode(word_type w) noexcept {
    return static_cast<wide_word>(static_cast<std::uint32_t>(w.claimer)) |
           static_cast<wide_word>(reinterpret_cast<std::uintptr_t>(w.node))
               << 64;
  }
  static word_type decode(wide_word b) noexcept {
    return {reinterpret_cast<Node*>(static_cast<std::uintptr_t>(b >> 64)),
            static_cast<std::int32_t>(static_cast<std::uint32_t>(b))};
  }

  alignas(16) wide_word word_ = encode({});
};

}  // namespace kpq
