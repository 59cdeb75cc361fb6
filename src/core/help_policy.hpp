// Helping policies (paper §3.2 help(), and §3.3 optimization 1).
//
//   * help_all — the paper's base help() (lines 36–47): on every operation,
//     traverse the whole `state` array and help every thread whose pending
//     operation has phase <= ours. O(n) per operation.
//
//   * help_one — optimization 1: help at most one *other* thread per
//     operation, choosing candidates in cyclic order over the state array,
//     then complete our own operation. This optimization was the dominant
//     win in the paper's Figure 9: it prevents pile-ups where every thread
//     piles onto the same slow peer. Deviation from §3.3: a candidate is
//     helped only at a *second look* (see help_one below), so each active
//     peer helps a stalled operation within 2n of its own operations
//     instead of n.
//
// §3.3's other traversals are not implemented: a cyclic chunk of K > 1
// slots only interpolates between help_one and help_all, and a random
// chunk gives merely probabilistic wait-freedom.
//
// The policies rely on queue::help_if_needed(i, phase, guard, my), which
// applies the pending-and-phase<= filter (paper line 39) before dispatching
// to help_enq/help_deq; help_one probes through queue::help_if_seen, the
// same filter plus the second-look phase match.
#pragma once

#include <cstdint>
#include <vector>

#include "core/wf_node.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

struct help_all {
  explicit help_all(std::uint32_t /*max_threads*/) {}

  template <typename Queue, typename Guard>
  void run(Queue& q, std::uint32_t my_tid, std::int64_t phase, Guard& g) {
    // The loop includes our own entry (paper line 37).
    for (std::uint32_t i = 0; i < q.max_threads(); ++i) {
      q.help_if_needed(i, phase, g, my_tid);
    }
  }
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
/// argument (paper §5.3) is otherwise unchanged.
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

  std::vector<padded<look>> cursor_;
};

}  // namespace kpq
