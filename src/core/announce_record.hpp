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
//
// The word in memory (docs/ALGORITHM.md §2(d)):
//   * CAS — `lock cmpxchg16b`, inlined by GCC's __sync builtin under -mcx16
//     (the kpq target sets it). Without it the builtin would fall back to
//     libatomic, which may take a lock and would break wait-freedom, so the
//     build stops instead.
//   * Load — two 8-byte halves, read tag, node, tag again. Every CAS bumps
//     the version, so equal tags mean no CAS landed between the reads and
//     the pair is a value the word held. Unequal tags fall back to one
//     cmpxchg16b with expected = desired, which returns the word without
//     changing it: three loads and at most one CAS, so the load is
//     wait-free and needs no 16-byte load instruction.
//   * ThreadSanitizer builds CAS through GCC's 16-byte __atomic builtin
//     (linked against libatomic). TSan runs that CAS as plain stores under
//     its own lock, which an 8-byte load does not take, so there each
//     half-load reads the whole word through the same builtin.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/wf_node.hpp"

#if !defined(__x86_64__)
#error "kpq's announce records need x86-64 (cmpxchg16b)"
#endif
#if !defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16)
#error "16-byte CAS is not lock-free in this build: compile with -mcx16"
#endif

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

  /// The word, read as the file comment says. `step()` runs before each of
  /// its shared accesses (the queue passes its scheduling point).
  template <typename Step>
  word_type word(Step step) const noexcept {
    step();
    const std::uint64_t tag = half(0);
    step();
    const std::uint64_t node = half(1);
    step();
    if (half(0) == tag) return {tag, reinterpret_cast<Node*>(node)};
    step();
    return decode(cas16(word_, 0, 0));  // expected = desired: a read
  }
  word_type word() const noexcept { return word([] {}); }

  bool cas(word_type expected, word_type desired) noexcept {
    const wide e = encode(expected);
    return cas16(word_, e, encode(desired)) == e;
  }

  record_snapshot<Node> snapshot() const noexcept {
    const word_type w = word();
    return {w.version(), w.pending(), w.enqueue(), w.node,
            phase.load(std::memory_order_seq_cst)};
  }

  /// The operation's phase: no_phase until the first publish.
  std::atomic<std::int64_t> phase{no_phase};

 private:
  // Both views of the word alias each other.
  __extension__ typedef unsigned __int128 wide [[gnu::may_alias]];
  using half_word [[gnu::may_alias]] = std::uint64_t;

  static wide encode(word_type w) noexcept {
    return static_cast<wide>(w.tag) |
           static_cast<wide>(reinterpret_cast<std::uintptr_t>(w.node)) << 64;
  }
  static word_type decode(wide b) noexcept {
    return {static_cast<std::uint64_t>(b),
            reinterpret_cast<Node*>(static_cast<std::uintptr_t>(b >> 64))};
  }

  /// Sequentially consistent 16-byte CAS; returns the word it found. A
  /// failed cmpxchg16b writes back what it read, so even a read needs the
  /// word writable (it always is: records are never const objects).
  static wide cas16(const wide& w, wide expected, wide desired) noexcept {
    wide* p = const_cast<wide*>(&w);
#if defined(__SANITIZE_THREAD__)
    __atomic_compare_exchange_n(p, &expected, desired, false,
                                __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
    return expected;
#else
    return __sync_val_compare_and_swap(p, expected, desired);
#endif
  }

  /// Half i of the word: 0 the tag, 1 the node.
  std::uint64_t half(int i) const noexcept {
#if defined(__SANITIZE_THREAD__)
    // kpq-order: seq_cst pairs-with cas16, through TSan's 16-byte lock
    const wide w = __atomic_load_n(&word_, __ATOMIC_SEQ_CST);
    return static_cast<std::uint64_t>(w >> (64 * i));
#else
    // kpq-order: seq_cst pairs-with cas16 (a locked CAS is a full barrier,
    // and x86 orders an aligned 8-byte load as one access)
    return __atomic_load_n(reinterpret_cast<const half_word*>(&word_) + i,
                           __ATOMIC_SEQ_CST);
#endif
  }

  // Version 0, done, dequeue, no node: a completed empty dequeue.
  alignas(16) wide word_ = 0;
};

}  // namespace kpq
