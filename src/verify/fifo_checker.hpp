// Whole-run FIFO consistency checker.
//
// Full linearizability checking is NP-hard in general and expensive even for
// queues, so stress tests use this checker: a set of *sound necessary
// conditions* for a history to be linearizable with respect to a FIFO queue.
// Every condition below is implied by linearizability, so any violation is a
// real bug; the (exponential) lin_checker covers small histories exactly.
//
// Checks, given the recorded history plus the multiset of values drained
// from the queue after the run:
//   C1 uniqueness     — no value dequeued twice.
//   C2 provenance     — every dequeued value was enqueued (and every drained
//                       value too), and no dequeue of v responded before
//                       enq(v) was invoked.
//   C3 conservation   — enqueued = dequeued (disjoint) union drained.
//   C4 FIFO real-time — if enq(a) strictly precedes enq(b) (a.res < b.inv)
//                       then deq(b) must not strictly precede deq(a); if b
//                       was dequeued, a must not remain in the final drain.
//   C5 empty honesty  — a dequeue returning empty is illegal if some value
//                       was provably inside the queue for the dequeue's
//                       whole interval: enqueued before it began and not
//                       dequeued until after it returned (or never).
//
// Values must be unique across the run (use kpq::encode_value).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "verify/history.hpp"

namespace kpq {

struct check_result {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string msg) {
    ok = false;
    if (violations.size() < 32) violations.push_back(std::move(msg));
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

class fifo_checker {
 public:
  static check_result check(const std::vector<op_event>& history,
                            const std::vector<std::uint64_t>& drained) {
    check_result r;

    std::unordered_map<std::uint64_t, const op_event*> enq_of;
    std::unordered_map<std::uint64_t, const op_event*> deq_of;
    std::vector<const op_event*> empty_deqs;
    enq_of.reserve(history.size());
    deq_of.reserve(history.size());

    for (const auto& e : history) {
      if (e.kind == op_kind::enq) {
        if (!enq_of.emplace(e.value, &e).second) {
          r.fail("duplicate enqueue of value " + std::to_string(e.value) +
                 " (values must be unique for checking)");
        }
      } else if (e.ok) {
        if (!deq_of.emplace(e.value, &e).second) {
          r.fail("C1: value " + std::to_string(e.value) + " dequeued twice");
        }
      } else {
        empty_deqs.push_back(&e);
      }
    }

    // C2: provenance, in real time too.
    for (const auto& [v, d] : deq_of) {
      const auto it = enq_of.find(v);
      if (it == enq_of.end()) {
        r.fail("C2: dequeued value " + std::to_string(v) +
               " was never enqueued");
      } else if (d->res < it->second->inv) {
        r.fail("C2: deq(" + std::to_string(v) + ") completed before enq(" +
               std::to_string(v) + ") began");
      }
    }
    std::unordered_map<std::uint64_t, int> drain_count;
    for (std::uint64_t v : drained) {
      if (!enq_of.count(v)) {
        r.fail("C2: drained value " + std::to_string(v) +
               " was never enqueued");
      }
      if (deq_of.count(v)) {
        r.fail("C3: value " + std::to_string(v) +
               " both dequeued and left in the queue");
      }
      if (++drain_count[v] > 1) {
        r.fail("C1: value " + std::to_string(v) + " drained twice");
      }
    }

    // C3: conservation.
    if (deq_of.size() + drained.size() != enq_of.size()) {
      r.fail("C3: " + std::to_string(enq_of.size()) + " enqueued but " +
             std::to_string(deq_of.size()) + " dequeued + " +
             std::to_string(drained.size()) + " drained");
    }

    check_fifo_order(r, enq_of, deq_of, drain_count);
    check_empty_honesty(r, enq_of, deq_of, empty_deqs);
    return r;
  }

 private:
  using enq_map = std::unordered_map<std::uint64_t, const op_event*>;

  static void check_fifo_order(
      check_result& r, const enq_map& enq_of, const enq_map& deq_of,
      const std::unordered_map<std::uint64_t, int>& drain_count) {
    // Sort enqueues by response; for a pair (a, b) with enq(a).res <
    // enq(b).inv, FIFO requires a out before b. Checking all pairs is
    // O(n^2); instead sweep enqueues in response order and maintain the
    // maximum "a must leave by" constraint: for each enqueue b, every
    // earlier-completed enqueue a (res < b.inv) must satisfy
    // deq(a).inv < deq(b).res  (not: deq(b).res < deq(a).inv) and must not
    // be drained if b was dequeued. We verify the pairwise condition with a
    // sweep over (inv of b) using a running prefix.
    std::vector<const op_event*> enqs;
    enqs.reserve(enq_of.size());
    for (const auto& [v, e] : enq_of) {
      (void)v;
      enqs.push_back(e);
    }
    std::sort(enqs.begin(), enqs.end(),
              [](const op_event* x, const op_event* y) {
                return x->res < y->res;
              });

    // For the prefix of enqueues with res < b.inv, we need:
    //   max over a in prefix of (deq(a).inv, with "drained" = +inf)
    //   to be checked against deq(b).res: if some a has deq(a).inv >
    //   deq(b).res then deq(b) completed strictly before deq(a) began (or a
    //   was drained) — violation. So track the prefix maximum of
    //   effective_deq_inv(a) and compare with each b's deq response.
    struct entry {
      std::uint64_t enq_res;
      std::uint64_t eff_deq_inv;  // UINT64_MAX if drained / never dequeued
      std::uint64_t value;
    };
    std::vector<entry> prefix;
    prefix.reserve(enqs.size());
    for (const op_event* e : enqs) {
      std::uint64_t eff = UINT64_MAX;
      auto it = deq_of.find(e->value);
      if (it != deq_of.end()) eff = it->second->inv;
      prefix.push_back({e->res, eff, e->value});
    }
    // prefix maxima of eff_deq_inv in enq-res order
    std::vector<std::uint64_t> pmax(prefix.size());
    std::vector<std::uint64_t> pmax_val(prefix.size());
    std::uint64_t run = 0, run_val = 0;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      if (prefix[i].eff_deq_inv >= run) {
        run = prefix[i].eff_deq_inv;
        run_val = prefix[i].value;
      }
      pmax[i] = run;
      pmax_val[i] = run_val;
    }

    for (const auto& [v, b_enq] : enq_of) {
      auto it = deq_of.find(v);
      if (it == deq_of.end()) continue;  // b not dequeued: no constraint here
      const std::uint64_t b_deq_res = it->second->res;
      // Find the prefix of enqueues a with a.res < b_enq->inv.
      const auto hi = std::partition_point(
          prefix.begin(), prefix.end(), [&](const entry& a) {
            return a.enq_res < b_enq->inv;
          });
      if (hi == prefix.begin()) continue;
      const std::size_t k = static_cast<std::size_t>(hi - prefix.begin()) - 1;
      if (pmax[k] > b_deq_res && pmax_val[k] != v) {
        if (pmax[k] == UINT64_MAX) {
          r.fail("C4: value " + std::to_string(pmax_val[k]) +
                 " enqueued strictly before " + std::to_string(v) +
                 " but never dequeued while " + std::to_string(v) + " was");
        } else {
          r.fail("C4: FIFO inversion: enq(" + std::to_string(pmax_val[k]) +
                 ") strictly precedes enq(" + std::to_string(v) +
                 ") but deq(" + std::to_string(v) +
                 ") completed strictly before deq(" +
                 std::to_string(pmax_val[k]) + ") began");
        }
      }
    }
    (void)drain_count;
  }

  static void check_empty_honesty(check_result& r, const enq_map& enq_of,
                                  const enq_map& deq_of,
                                  const std::vector<const op_event*>& empties) {
    if (empties.empty()) return;
    // Witness structure: values whose presence interval [enq.res, deq.inv)
    // (deq.inv = +inf if never dequeued) covers an empty-deq's whole
    // [inv, res] make that empty return impossible.
    struct interval {
      std::uint64_t from;  // enq response
      std::uint64_t to;    // deq invocation or +inf
      std::uint64_t value;
    };
    std::vector<interval> present;
    present.reserve(enq_of.size());
    for (const auto& [v, e] : enq_of) {
      auto it = deq_of.find(v);
      present.push_back({e->res, it == deq_of.end() ? UINT64_MAX
                                                    : it->second->inv,
                         v});
    }
    std::sort(present.begin(), present.end(),
              [](const interval& x, const interval& y) {
                return x.from < y.from;
              });
    // Prefix maxima of `to` give, for any timestamp t, the interval starting
    // before t that extends furthest.
    std::vector<std::uint64_t> pmax(present.size());
    std::vector<std::uint64_t> pval(present.size());
    std::uint64_t run = 0, rv = 0;
    for (std::size_t i = 0; i < present.size(); ++i) {
      if (present[i].to >= run) {
        run = present[i].to;
        rv = present[i].value;
      }
      pmax[i] = run;
      pval[i] = rv;
    }
    for (const op_event* e : empties) {
      const auto hi = std::partition_point(
          present.begin(), present.end(),
          [&](const interval& iv) { return iv.from < e->inv; });
      if (hi == present.begin()) continue;
      const std::size_t k = static_cast<std::size_t>(hi - present.begin()) - 1;
      if (pmax[k] > e->res) {
        r.fail("C5: dequeue by thread " + std::to_string(e->tid) +
               " returned empty although value " + std::to_string(pval[k]) +
               " was inside the queue for its whole execution window");
      }
    }
  }
};

}  // namespace kpq
