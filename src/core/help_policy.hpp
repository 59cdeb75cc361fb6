// Helping policies (paper §3.2 help(), and §3.3 optimization 1).
//
//   * help_all — the paper's base help() (lines 36–47): on every operation,
//     traverse the whole `state` array and help every thread whose pending
//     operation has phase <= ours. O(n) per operation.
//
//   * help_one — optimization 1: help at most one *other* thread per
//     operation, choosing candidates in cyclic order over the state array,
//     then complete our own operation. This optimization was the dominant
//     win in the paper's Figure 9: it prevents stampedes where every thread
//     piles onto the same slow peer. Deviation from §3.3: a candidate is
//     helped only at a *second look* (see help_one below), so each active
//     peer helps a stalled operation within 2n of its own operations
//     instead of n.
//
// The policies rely on queue::help_if_needed(i, phase, guard, my), which
// applies the pending-and-phase<= filter (paper line 39) before dispatching
// to help_enq/help_deq; help_one probes through queue::help_if_seen, the
// same filter plus the second-look phase match.
#pragma once

#include <cstdint>
#include <vector>

#include "core/op_desc.hpp"
#include "obs/trace_ring.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

/// Trace hook shared by the policies: one help_scan event per run(), with
/// the number of state slots this pass examined (the policy's per-op scan
/// cost — n for help_all, K+1 for help_chunk, 2 for help_one/random).
/// Compiles out with the queue's recorder policy; queues without a
/// trace_type (the policies are generic) are simply not traced.
template <typename Queue>
inline void trace_help_scan(std::uint32_t my_tid, std::uint32_t examined) {
  if constexpr (requires { typename Queue::trace_type; }) {
    if constexpr (Queue::trace_type::enabled) {
      Queue::trace_type::record(my_tid, obs::trace_kind::help_scan, 0,
                                examined);
    }
  }
}

struct help_all {
  explicit help_all(std::uint32_t /*max_threads*/) {}

  template <typename Queue, typename Guard>
  void run(Queue& q, std::uint32_t my_tid, std::int64_t phase, Guard& g) {
    // The loop includes our own entry (paper line 37).
    trace_help_scan<Queue>(my_tid, q.max_threads());
    for (std::uint32_t i = 0; i < q.max_threads(); ++i) {
      q.help_if_needed(i, phase, g, my_tid);
    }
  }
  static constexpr const char* name = "help_all";
};

/// §3.3 generalization: "a thread may traverse only a chunk of the state
/// array in a cyclic manner in the help() method ... indexes 0 through k-1
/// mod n (in addition to its own index), in the second invocation indexes
/// k mod n through 2k-1 mod n, and so on." K=1 is the paper's help_one,
/// without our help_one's second look. Wait-freedom is preserved: a stalled
/// operation is reached after at most ceil(n/K) invocations of each active
/// peer.
template <std::uint32_t K>
struct help_chunk {
  static_assert(K >= 1);
  explicit help_chunk(std::uint32_t max_threads) : cursor_(max_threads) {}

  template <typename Queue, typename Guard>
  void run(Queue& q, std::uint32_t my_tid, std::int64_t phase, Guard& g) {
    const std::uint32_t n = q.max_threads();
    std::uint32_t& k = cursor_[my_tid].value;  // owner-only cursor
    trace_help_scan<Queue>(my_tid, K + 1);
    for (std::uint32_t step = 0; step < K; ++step) {
      const std::uint32_t candidate = k;
      k = (k + 1 == n) ? 0 : k + 1;
      if (candidate != my_tid) q.help_if_needed(candidate, phase, g, my_tid);
    }
    q.help_if_needed(my_tid, phase, g, my_tid);
  }
  static constexpr const char* name = "help_chunk";

  std::vector<padded<std::uint32_t>> cursor_;
};

/// §3.3 alternative: "each thread might traverse a random chunk of the
/// array, achieving probabilistic wait-freedom." One random candidate per
/// operation; a stalled operation is helped with probability 1 but without
/// a deterministic step bound — hence *probabilistic* wait-freedom only.
struct help_random {
  explicit help_random(std::uint32_t max_threads) : rng_state_(max_threads) {
    for (std::uint32_t i = 0; i < max_threads; ++i) {
      rng_state_[i].value = 0x9E3779B97F4A7C15ULL * (i + 1) + 1;
    }
  }

  template <typename Queue, typename Guard>
  void run(Queue& q, std::uint32_t my_tid, std::int64_t phase, Guard& g) {
    std::uint64_t& s = rng_state_[my_tid].value;  // owner-only xorshift64
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    const auto candidate =
        static_cast<std::uint32_t>(s % q.max_threads());
    trace_help_scan<Queue>(my_tid, 2);
    if (candidate != my_tid) q.help_if_needed(candidate, phase, g, my_tid);
    q.help_if_needed(my_tid, phase, g, my_tid);
  }
  static constexpr const char* name = "help_random";

  std::vector<padded<std::uint64_t>> rng_state_;
};

/// §3.3 optimization 1 with a second look, the help record of Kogan &
/// Petrank's PPoPP'12 methodology: on real cores almost every peer is
/// mid-operation, and helping it at the first look mostly duplicates steps
/// its owner is about to take. Per thread: a cyclic cursor and `seen`, the
/// phase of the pending operation found at the first look at the cursor's
/// slot (no_phase if none). Each run() probes the cursor's slot:
///   * first look at a pending operation: record its phase, keep the cursor;
///   * second look, same phase still pending (and <= ours): help it;
///   * anything else (nothing pending, phase changed, our own slot): clear
///     `seen` and advance.
/// The delay is one operation, fixed. A slot holds the cursor for at most two
/// consecutive operations and a stalled operation's phase never changes, so
/// every active peer helps it within 2n of its own operations; the doorway
/// argument (paper §5.3) is otherwise unchanged. A bulk operation reuses one
/// phase for its whole batch, so a second look may help a later item of the
/// same batch — harmless, helping a pending operation is always correct.
struct help_one {
  struct look {
    std::uint32_t slot = 0;
    std::int64_t seen = no_phase;
  };

  explicit help_one(std::uint32_t max_threads) : cursor_(max_threads) {}

  template <typename Queue, typename Guard>
  void run(Queue& q, std::uint32_t my_tid, std::int64_t phase, Guard& g) {
    const std::uint32_t n = q.max_threads();
    look& c = cursor_[my_tid].value;  // owner-only cursor
    trace_help_scan<Queue>(my_tid, 2);
    std::int64_t pending = no_phase;
    if (c.slot != my_tid) {
      pending = q.help_if_seen(c.slot, phase, c.seen, g, my_tid);
    }
    if (pending != no_phase && c.seen == no_phase) {
      c.seen = pending;  // first look: come back next operation
    } else {
      c.seen = no_phase;
      c.slot = (c.slot + 1 == n) ? 0 : c.slot + 1;
    }
    // Our own operation must always complete before run() returns.
    q.help_if_needed(my_tid, phase, g, my_tid);
  }
  static constexpr const char* name = "help_one";

  std::vector<padded<look>> cursor_;
};

}  // namespace kpq
