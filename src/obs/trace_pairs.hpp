// The one pairing pass over a drained trace. The timeline export
// (obs/timeline.hpp) and the derived metrics (obs/wf_metrics.hpp) both read
// operations and helping episodes from it, so a help slice in the timeline
// and a help-latency sample in the report are the same episode.
//
// The rule, per thread and in trace order (docs/OBSERVABILITY.md §3):
//   * a publish opens the thread's enqueue (or dequeue), and the next
//     completion of that kind closes it. A completion with nothing open is
//     still an operation, one whose publish the trace lost (ring wrap);
//   * help_start opens an episode and help_finish closes it. A second start
//     replaces an open one and counts as unmatched; a finish with no start
//     counts as unmatched, and so does a start still open at the end;
//   * a completion's phase lag is the highest phase any thread published
//     before it, minus its own phase (0 when it is the highest).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/trace_ring.hpp"

namespace kpq::obs {

struct paired_op {
  const trace_event* publish;  // null: the trace lost the publish
  const trace_event* complete;
  std::uint64_t phase_lag;
};

struct paired_help {
  const trace_event* start;
  const trace_event* finish;
};

/// Points into the paired event vector, which must outlive it.
struct trace_pairs {
  std::vector<paired_op> ops;      // every completion, in trace order
  std::vector<paired_help> helps;  // matched episodes, in finish order
  std::vector<const trace_event*> points;  // retires (and retired kinds)
  std::uint64_t unmatched_helps = 0;
};

inline trace_pairs pair_trace(const std::vector<trace_event>& events) {
  // One open slot of each kind per thread suffices: a thread's own
  // operations are sequential, and helping never nests (help_enq/help_deq
  // run to completion).
  struct open_spans {
    const trace_event* enq = nullptr;
    const trace_event* deq = nullptr;
    const trace_event* help = nullptr;
  };
  std::uint32_t threads = 0;
  for (const trace_event& e : events) threads = std::max(threads, e.tid + 1);
  std::vector<open_spans> open(threads);
  trace_pairs p;
  std::int64_t frontier = 0;  // max phase published so far
  for (const trace_event& e : events) {
    open_spans& o = open[e.tid];
    switch (e.kind) {
      case trace_kind::enq_publish:
      case trace_kind::deq_publish:
        (e.kind == trace_kind::enq_publish ? o.enq : o.deq) = &e;
        frontier = std::max(frontier, e.phase);
        break;
      case trace_kind::enq_complete:
      case trace_kind::deq_complete: {
        const trace_event*& pub =
            e.kind == trace_kind::enq_complete ? o.enq : o.deq;
        p.ops.push_back({pub, &e,
                         static_cast<std::uint64_t>(
                             frontier > e.phase ? frontier - e.phase : 0)});
        pub = nullptr;
        break;
      }
      case trace_kind::help_start:
        if (o.help != nullptr) ++p.unmatched_helps;
        o.help = &e;
        break;
      case trace_kind::help_finish:
        if (o.help != nullptr) {
          p.helps.push_back({o.help, &e});
        } else {
          ++p.unmatched_helps;
        }
        o.help = nullptr;
        break;
      default:
        p.points.push_back(&e);
        break;
    }
  }
  for (const open_spans& o : open) {
    if (o.help != nullptr) ++p.unmatched_helps;
  }
  return p;
}

}  // namespace kpq::obs
