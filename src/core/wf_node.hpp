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
#include <cassert>
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

/// The queue's head: one 8-byte CAS word {node, claimer}. With `node`
/// hazard-pinned a word never repeats: each head position goes
/// {first, none} -> {first, tid} -> {next, none} at most once, or straight
/// {first, none} -> {next, none}, and head never returns to a pinned node.
/// So the word needs no version (docs/ALGORITHM.md §2(b)).
///
/// claimer + 1 (0 for none) takes 11 bits that no node address uses: its low
/// 3 bits go into the node's 8-byte alignment, the rest into bits 56-63,
/// which are zero in every x86-64 user address, 5-level paging included.
template <typename Node>
class head_cell {
 public:
  using word_type = head_word<Node>;
  /// Claimers 0 .. max_claimers - 1 fit in the word beside the node.
  static constexpr std::uint32_t max_claimers = (1u << 11) - 1;

  word_type word() const noexcept {
    // kpq-order: seq_cst pairs-with the seq_cst CAS below, the only writer
    return decode(word_.load(std::memory_order_seq_cst));
  }

  bool cas(word_type expected, word_type desired) noexcept {
    std::uintptr_t e = encode(expected);
    // kpq-order: seq_cst pairs-with word()'s seq_cst loads (the queue's
    // re-reads and the hazard protect that validates a pinned `first`)
    return word_.compare_exchange_strong(e, encode(desired),
                                         std::memory_order_seq_cst);
  }

 private:
  static constexpr std::uintptr_t low_bits = 7;
  static constexpr int high_shift = 56;
  static constexpr std::uintptr_t node_bits =
      ((std::uintptr_t{1} << high_shift) - 1) & ~low_bits;
  static_assert(alignof(Node) >= 8, "the claimer needs 3 free low bits");

  static std::uintptr_t encode(word_type w) noexcept {
    const auto p = reinterpret_cast<std::uintptr_t>(w.node);
    const auto c = static_cast<std::uintptr_t>(w.claimer + 1);
    assert((p & ~node_bits) == 0 && c <= max_claimers);
    return p | (c & low_bits) | (c >> 3) << high_shift;
  }
  static word_type decode(std::uintptr_t b) noexcept {
    const std::uintptr_t c = (b & low_bits) | (b >> high_shift) << 3;
    return {reinterpret_cast<Node*>(b & node_bits),
            static_cast<std::int32_t>(c) - 1};
  }

  std::atomic<std::uintptr_t> word_{0};  // {nullptr, no_tid}
};

}  // namespace kpq
