// Derived wait-freedom metrics, computed from a drained trace.
//
// The paper's progress claims are per-operation; these are the three
// distributions that make them visible (docs/OBSERVABILITY.md defines each
// precisely):
//
//   * helping latency — duration of each helping episode (help_start ..
//     help_finish on the helping thread). Bounded helping episodes are the
//     mechanism behind the step bound; a heavy tail here is a helping
//     pile-up (the paper's Figure 9 pathology) made directly visible.
//
//   * phase lag — at an operation's completion event, (max phase published
//     so far) − (the operation's phase). The doorway argument (paper §5.3)
//     bounds how many operations can linearize before phase p; the lag
//     distribution is that bound measured: how far the queue's phase
//     frontier ran ahead while the operation was in flight.
//
//   * ops-helped-per-op — helping episodes per completed operation, the
//     trace-level twin of wf_counters' helped_*_completions rate (that one
//     counts only *won* completion CASes; this one counts every episode).
//
// All computation is post-hoc over the drained, time-sorted event vector —
// nothing here touches the hot path. That vector is bounded (at most
// capacity_per_thread events per thread), so the report keeps every
// latency and lag sample, sorted, and reads its quantiles as nearest-rank
// samples (harness/stats.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/stats.hpp"
#include "obs/export.hpp"
#include "obs/trace_pairs.hpp"
#include "obs/trace_ring.hpp"

namespace kpq::obs {

struct wf_trace_report {
  // Durations in ticks (tick_now() units); scale by calibrate_ticks()'s
  // tick_hz when labeling. Phase lag is in phases (dimensionless). Both
  // are sorted ascending: read them with nearest_rank.
  std::vector<std::uint64_t> help_latency;
  std::vector<std::uint64_t> phase_lag;

  std::uint64_t enq_ops = 0;
  std::uint64_t deq_ops = 0;
  std::uint64_t empty_deqs = 0;
  std::uint64_t help_episodes = 0;    // matched start/finish pairs
  std::uint64_t unmatched_helps = 0;  // a start or finish left unpaired
  std::uint64_t retires = 0;
  std::uint64_t dropped_events = 0;   // ring overwrites: report is a suffix
  std::int64_t max_phase_seen = 0;

  std::uint64_t ops() const noexcept { return enq_ops + deq_ops; }
  double helped_per_op() const noexcept {
    return ops() == 0 ? 0.0
                      : static_cast<double>(help_episodes) /
                            static_cast<double>(ops());
  }
};

/// `events` must be time-sorted (trace_domain::drain_all output). The
/// report reads the same pairs as the timeline (obs/trace_pairs.hpp).
inline wf_trace_report analyze_trace(const std::vector<trace_event>& events,
                                     std::uint64_t dropped = 0) {
  const trace_pairs p = pair_trace(events);
  wf_trace_report r;
  r.dropped_events = dropped;
  for (const paired_op& op : p.ops) {
    if (op.complete->kind == trace_kind::enq_complete) {
      ++r.enq_ops;
    } else {
      ++r.deq_ops;
      if (op.complete->aux == 0) ++r.empty_deqs;
    }
    r.phase_lag.push_back(op.phase_lag);
  }
  for (const paired_help& h : p.helps) {
    r.help_latency.push_back(h.finish->ts - h.start->ts);
  }
  r.help_episodes = p.helps.size();
  r.unmatched_helps = p.unmatched_helps;
  for (const trace_event* e : p.points) {
    if (e->kind == trace_kind::retire) ++r.retires;
  }
  for (const trace_event& e : events) {
    r.max_phase_seen = std::max(r.max_phase_seen, e.phase);
  }
  std::sort(r.help_latency.begin(), r.help_latency.end());
  std::sort(r.phase_lag.begin(), r.phase_lag.end());
  return r;
}

/// The derived metrics as `prefix.name` keys of the object `w` has open.
inline void write_metrics(json_writer& w, const std::string& prefix,
                          const wf_trace_report& r) {
  w.key(prefix + ".enq_ops").value(r.enq_ops);
  w.key(prefix + ".deq_ops").value(r.deq_ops);
  w.key(prefix + ".empty_deqs").value(r.empty_deqs);
  w.key(prefix + ".help_episodes").value(r.help_episodes);
  w.key(prefix + ".helped_per_op").value(r.helped_per_op());
  w.key(prefix + ".retires").value(r.retires);
  w.key(prefix + ".dropped_events").value(r.dropped_events);
  w.key(prefix + ".max_phase").value(r.max_phase_seen);
  for (double q : {0.5, 0.9, 0.99}) {
    const std::string pct = std::to_string(static_cast<int>(q * 100.0));
    w.key(prefix + ".help_latency_ticks.p" + pct)
        .value(nearest_rank(r.help_latency, q));
    w.key(prefix + ".phase_lag.p" + pct).value(nearest_rank(r.phase_lag, q));
  }
}

}  // namespace kpq::obs
