// One thread's announce record: the paper's `state[tid]` entry (Figure 1's
// OpDesc), updated in place instead of replaced by a fresh descriptor.
//
// The record is a 16-byte CAS word {tag, node} plus the operation's phase:
//
//   tag = version << 2 | pending << 1 | enqueue
//
// Every successful CAS on the word bumps the version, so a word value never
// repeats: a CAS whose expected value was read before any other transition
// fails, exactly as a CAS against a since-replaced descriptor did. Bumping
// only when the owner publishes is not enough — a helper's stale CAS could
// then match a record that left and came back to the same node address
// (docs/ALGORITHM.md §2(d)).
//
// `phase` is written by the owner before it publishes; readers load the word
// first and the phase second, so the phase they see is the word's operation's
// or a newer one, and a newer one means the word's operation has completed.
//
// Who writes what (docs/ALGORITHM.md §2(d)):
//   * the owner publishes a pending operation by a CAS from its own completed
//     record, which nobody else changes;
//   * helpers CAS only pending records: stage 0 re-points a dequeue at the
//     current sentinel, completion clears `pending`.
// `node` is the enqueued node (enqueue), the claimed sentinel while a
// dequeue is pending, and the node holding the dequeued item once it is
// done (null: the dequeue found the queue empty).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/wf_node.hpp"
#include "sync/wide_word.hpp"

namespace kpq {

/// A decoded record word.
template <typename Node>
struct record_word {
  std::uint64_t tag = 0;
  Node* node = nullptr;

  std::uint64_t version() const noexcept { return tag >> 2; }
  bool pending() const noexcept { return (tag & 2) != 0; }
  bool enqueue() const noexcept { return (tag & 1) != 0; }

  /// The word a transition from this one installs: the next version.
  record_word next(bool pend, bool enq, Node* n) const noexcept {
    return {((version() + 1) << 2) | (std::uint64_t{pend} << 1) |
                std::uint64_t{enq},
            n};
  }

  bool operator==(const record_word&) const = default;
};

/// What a test or audit sees of one record (read at quiescence).
template <typename Node>
struct record_snapshot {
  std::uint64_t version;
  bool pending;
  bool enqueue;
  Node* node;
  std::int64_t phase;
};

template <typename Node>
class announce_record {
 public:
  using word_type = record_word<Node>;

  word_type word() const noexcept { return decode(wide_load(&word_)); }

  bool cas(word_type expected, word_type desired) noexcept {
    return wide_cas(&word_, encode(expected), encode(desired));
  }

  record_snapshot<Node> snapshot() const noexcept {
    const word_type w = word();
    return {w.version(), w.pending(), w.enqueue(), w.node,
            phase.load(std::memory_order_seq_cst)};
  }

  /// The operation's phase: no_phase until the first publish.
  std::atomic<std::int64_t> phase{no_phase};

 private:
  static wide_word encode(word_type w) noexcept {
    return static_cast<wide_word>(w.tag) |
           static_cast<wide_word>(reinterpret_cast<std::uintptr_t>(w.node))
               << 64;
  }
  static word_type decode(wide_word b) noexcept {
    return {static_cast<std::uint64_t>(b),
            reinterpret_cast<Node*>(static_cast<std::uintptr_t>(b >> 64))};
  }

  // Version 0, done, dequeue, no node: a completed empty dequeue.
  alignas(16) wide_word word_ = 0;
};

}  // namespace kpq
