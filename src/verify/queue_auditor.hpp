// Structural invariant auditor for the KP wait-free queue.
//
// The linearizability proof (paper §5.2) rests on structural invariants of
// the underlying list and state array. Under quiescence (no operation in
// flight) this auditor checks every one of them directly, so stress tests
// can interleave workload phases with full-structure audits:
//
//   I1  the list from head is acyclic and null-terminated;
//   I2  tail is reachable from head, and AT MOST ONE node dangles beyond
//       tail (the paper's "at most one node can be beyond the node
//       referenced by tail" invariant, §3.1) — at quiescence, exactly zero;
//   I3  every node except possibly the sentinel carries a valid enq_tid;
//   I4  the head word's claimer is no_tid or a tid below max_threads, and
//       at quiescence it is no_tid (a standing claim would mean a dequeue
//       linearized but never finished);
//   I5  no announce record in `state` is pending;
//   I6  no completed record contradicts the list: an enqueue's record names
//       its node (never null), and a dequeue's record names null (empty) or
//       the node that held its item, which by then is the sentinel or gone —
//       never a node still queued behind the sentinel, whose item would
//       then be both returned and queued.
//
// The auditor is deliberately read-only and header-only; it uses only the
// queue's public quiescent surface plus the shared testing::whitebox
// declared by the queue (the test target defines it).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/announce_record.hpp"

namespace kpq {

struct audit_result {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string msg) {
    ok = false;
    if (violations.size() < 16) violations.push_back(std::move(msg));
  }
  std::string to_string() const {
    std::string s;
    for (const auto& v : violations) {
      s += v;
      s += '\n';
    }
    return s;
  }
};

/// Whitebox-view inputs collected by the test (which has friend access);
/// keeping the auditor independent of the queue template avoids a second
/// friend declaration.
template <typename Node>
struct audit_view {
  Node* head = nullptr;
  std::int32_t claimer = no_tid;  // the head word's claimer
  Node* tail = nullptr;
  std::vector<record_snapshot<Node>> state;  // one per thread slot
  std::uint32_t max_threads = 0;
  /// wf_queue_fps marks fast-path nodes with enq_tid == -1; set this for
  /// fps audits so I3 accepts anonymous enqueuers.
  bool allow_anonymous_enqueuers = false;
};

template <typename Node>
audit_result audit_quiescent(const audit_view<Node>& v) {
  audit_result r;
  if (v.head == nullptr || v.tail == nullptr) {
    r.fail("I1: null head or tail");
    return r;
  }

  // I1: walk the list, detect cycles, find tail.
  std::unordered_set<const Node*> seen;
  bool tail_reachable = false;
  std::size_t beyond_tail = 0;
  for (const Node* p = v.head; p != nullptr;
       p = p->next.load(std::memory_order_acquire)) {
    if (!seen.insert(p).second) {
      r.fail("I1: cycle in the underlying list");
      return r;
    }
    if (p == v.tail) {
      tail_reachable = true;
    } else if (tail_reachable) {
      ++beyond_tail;
    }
    // I3: every non-sentinel node was enqueued by someone (fast-path nodes
    // are legitimately anonymous when the view says so).
    if (p != v.head) {
      const auto etid = p->enq_tid;
      const bool anonymous_ok = v.allow_anonymous_enqueuers && etid == -1;
      if (!anonymous_ok &&
          (etid < 0 || static_cast<std::uint32_t>(etid) >= v.max_threads)) {
        r.fail("I3: node with out-of-range enq_tid " + std::to_string(etid));
      }
    }
  }

  // I4: no claim, and none by an impossible tid.
  if (v.claimer != no_tid) {
    if (v.claimer < 0 ||
        static_cast<std::uint32_t>(v.claimer) >= v.max_threads) {
      r.fail("I4: head claimed by out-of-range tid " +
             std::to_string(v.claimer));
    } else {
      r.fail("I4: head claimed by thread " + std::to_string(v.claimer) +
             " at quiescence (unfinished dequeue)");
    }
  }

  // I2: tail reachable; no dangling node at quiescence.
  if (!tail_reachable) r.fail("I2: tail not reachable from head");
  if (beyond_tail > 1) {
    r.fail("I2: " + std::to_string(beyond_tail) +
           " nodes beyond tail (invariant allows at most one)");
  }
  if (beyond_tail == 1) {
    r.fail("I2: dangling node present at quiescence (unfinished enqueue)");
  }

  // I5 + I6 over the state array. A record of version 0 was never
  // published.
  for (std::uint32_t i = 0; i < v.state.size(); ++i) {
    const record_snapshot<Node>& rec = v.state[i];
    const std::string who = "thread " + std::to_string(i);
    if (rec.pending) {
      r.fail("I5: " + who + " still pending at quiescence");
      continue;
    }
    if (rec.version == 0) continue;
    if (rec.enqueue && rec.node == nullptr) {
      r.fail("I6: " + who + "'s completed enqueue names no node");
    }
    if (!rec.enqueue && rec.node != nullptr && rec.node != v.head &&
        seen.count(rec.node) != 0) {
      r.fail("I6: " + who +
             "'s completed dequeue names a node still queued behind the "
             "sentinel");
    }
  }
  return r;
}

}  // namespace kpq
