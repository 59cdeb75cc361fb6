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
// nothing here touches the hot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/trace_ring.hpp"

namespace kpq::obs {

struct wf_trace_report {
  // Durations in ticks (tick_now() units); scale by calibrate_ticks()'s
  // tick_hz when labeling. Phase lag is in phases (dimensionless).
  log2_histogram help_latency;
  log2_histogram phase_lag;

  std::uint64_t enq_ops = 0;
  std::uint64_t deq_ops = 0;
  std::uint64_t empty_deqs = 0;
  std::uint64_t help_episodes = 0;    // matched start/finish pairs
  std::uint64_t unmatched_helps = 0;  // start with no finish (ring wrap)
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

/// `events` must be time-sorted (trace_domain::drain_all output).
inline wf_trace_report analyze_trace(const std::vector<trace_event>& events,
                                     std::uint64_t dropped = 0,
                                     std::uint32_t max_threads = 0) {
  wf_trace_report r;
  r.dropped_events = dropped;
  // Per-thread start timestamp of the helping episode in flight. Helping
  // never nests on one thread (help_enq/help_deq run to completion), so one
  // slot per tid suffices.
  std::uint32_t nt = max_threads;
  for (const trace_event& e : events) {
    if (e.tid >= nt) nt = e.tid + 1;
  }
  std::vector<std::uint64_t> help_open(nt, 0);  // 0 = no episode in flight
  std::int64_t frontier = 0;  // max phase published so far

  for (const trace_event& e : events) {
    switch (e.kind) {
      case trace_kind::enq_publish:
      case trace_kind::deq_publish:
        if (e.phase > frontier) frontier = e.phase;
        break;
      case trace_kind::enq_complete:
        ++r.enq_ops;
        r.phase_lag.add(static_cast<std::uint64_t>(
            frontier > e.phase ? frontier - e.phase : 0));
        break;
      case trace_kind::deq_complete:
        ++r.deq_ops;
        if (e.aux == 0) ++r.empty_deqs;
        r.phase_lag.add(static_cast<std::uint64_t>(
            frontier > e.phase ? frontier - e.phase : 0));
        break;
      case trace_kind::help_start:
        if (help_open[e.tid] != 0) ++r.unmatched_helps;
        help_open[e.tid] = e.ts ? e.ts : 1;
        break;
      case trace_kind::help_finish:
        if (help_open[e.tid] != 0) {
          ++r.help_episodes;
          r.help_latency.add(e.ts - help_open[e.tid]);
          help_open[e.tid] = 0;
        } else {
          ++r.unmatched_helps;
        }
        break;
      case trace_kind::retire:
        ++r.retires;
        break;
    }
    if (e.phase > r.max_phase_seen) r.max_phase_seen = e.phase;
  }
  for (std::uint64_t open : help_open) {
    if (open != 0) ++r.unmatched_helps;
  }
  return r;
}

/// Registry bridge: the derived metrics as exportable gauges. Histogram
/// quantiles are conservative upper bounds (log2_histogram semantics).
inline void append_metrics(metrics_snapshot& out, const std::string& prefix,
                           const wf_trace_report& r) {
  append_value(out, prefix + ".enq_ops", static_cast<double>(r.enq_ops));
  append_value(out, prefix + ".deq_ops", static_cast<double>(r.deq_ops));
  append_value(out, prefix + ".empty_deqs",
               static_cast<double>(r.empty_deqs));
  append_value(out, prefix + ".help_episodes",
               static_cast<double>(r.help_episodes));
  append_value(out, prefix + ".helped_per_op", r.helped_per_op());
  append_value(out, prefix + ".retires", static_cast<double>(r.retires));
  append_value(out, prefix + ".dropped_events",
               static_cast<double>(r.dropped_events));
  append_value(out, prefix + ".max_phase",
               static_cast<double>(r.max_phase_seen));
  for (double q : {0.5, 0.9, 0.99}) {
    const int pct = static_cast<int>(q * 100.0);
    append_value(out,
                 prefix + ".help_latency_ticks.p" + std::to_string(pct),
                 static_cast<double>(r.help_latency.quantile_upper_bound(q)));
    append_value(out, prefix + ".phase_lag.p" + std::to_string(pct),
                 static_cast<double>(r.phase_lag.quantile_upper_bound(q)));
  }
}

}  // namespace kpq::obs
