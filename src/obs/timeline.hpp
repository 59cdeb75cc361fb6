// Timeline export: drained trace rings -> Chrome/Perfetto trace-event JSON.
//
// The trace rings record *points* (publish, complete, help_start, ...); a
// human debugging a tail-latency spike wants *intervals* and *causality*.
// This converter renders the pairs obs/trace_pairs.hpp makes of the points
// (the same pass wf_metrics' report reads) as:
//
//   * "X" complete slices per thread — one per enqueue/dequeue (publish ->
//     complete) and one per helping episode (help_start -> help_finish,
//     with the victim tid/phase in args).
//   * "s"/"f" flow arrows from a helper's finished episode to the victim
//     operation's completion — the helper->helped causality the KP helping
//     scheme creates (help episodes record the victim tid and phase, the
//     key the arrow looks its target up by).
//   * "i" instant events for the point-like kind, retire.
//
// Output is the Trace Event Format JSON object form: `ts`/`dur` are
// MICROSECONDS (doubles), mapped from ticks with a tick_calibration. The
// document carries "kpqTraceSchema":"kpq-trace-1" and is validated in CI by
// scripts/validate_trace_json.py against scripts/trace_schema.json.
// `fig_obs_overhead --timeline PATH` writes one for the traced opt WF pairs
// run; Perfetto (ui.perfetto.dev) and chrome://tracing open it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/calibrate.hpp"
#include "obs/export.hpp"
#include "obs/trace_pairs.hpp"
#include "obs/trace_ring.hpp"

namespace kpq::obs {

/// The timeline document's schema tag (checked by the CI validator).
inline constexpr const char* timeline_schema = "kpq-trace-1";

/// Render `events` (drained, ts-sorted — trace_domain::drain_all's output)
/// as a Chrome/Perfetto trace-event JSON document. `dropped` is the ring
/// overwrite count from drain_all, surfaced in otherData so a viewer knows
/// it is looking at a suffix of the run.
inline std::string trace_to_timeline(const std::vector<trace_event>& events,
                                     const tick_calibration& cal,
                                     std::uint64_t dropped = 0) {
  // Base the timeline at the first event so ts values stay small.
  tick_calibration base = cal;
  if (!events.empty()) base.base_ticks = events.front().ts;
  const trace_pairs pairs = pair_trace(events);

  json_writer w;
  w.begin_object();
  w.key("kpqTraceSchema").value(timeline_schema);
  w.key("displayTimeUnit").value("ns");
  w.key("otherData").begin_object();
  w.key("tick_hz").value(cal.tick_hz);
  w.key("dropped_events").value(static_cast<std::uint64_t>(dropped));
  w.key("event_count").value(static_cast<std::uint64_t>(events.size()));
  w.end_object();
  w.key("traceEvents").begin_array();

  auto emit_common = [&](const char* name, const char* ph, std::uint32_t tid,
                         double ts_us) -> json_writer& {
    w.begin_object();
    w.key("name").value(name);
    w.key("ph").value(ph);
    w.key("pid").value(0);
    w.key("tid").value(static_cast<std::uint64_t>(tid));
    w.key("ts").value(ts_us);
    return w;
  };
  // An "X" slice from `begin` to `end` on end's thread; leaves args open.
  auto emit_slice = [&](const char* name, const char* cat,
                        const trace_event& begin, const trace_event& end) {
    const double t0 = base.to_us(begin.ts);
    const double t1 = base.to_us(end.ts);
    emit_common(name, "X", end.tid, t0);
    w.key("dur").value(t1 > t0 ? t1 - t0 : 0.0);
    w.key("cat").value(cat);
    w.key("args").begin_object();
  };

  // Process/thread metadata so viewers label the rows.
  w.begin_object();
  w.key("name").value("process_name");
  w.key("ph").value("M");
  w.key("pid").value(0);
  w.key("tid").value(0);
  w.key("args").begin_object().key("name").value("kpq").end_object();
  w.end_object();
  std::set<std::uint32_t> tids;
  for (const trace_event& e : events) tids.insert(e.tid);
  for (const std::uint32_t t : tids) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(0);
    w.key("tid").value(static_cast<std::uint64_t>(t));
    w.key("args")
        .begin_object()
        .key("name")
        .value("worker " + std::to_string(t))
        .end_object();
    w.end_object();
  }

  // Slices: operations whose publish the trace holds, and help episodes.
  for (const paired_op& op : pairs.ops) {
    if (op.publish == nullptr) continue;
    const trace_event& c = *op.complete;
    const bool is_enq = c.kind == trace_kind::enq_complete;
    emit_slice(is_enq ? "enqueue" : "dequeue", "op", *op.publish, c);
    w.key("phase").value(c.phase);
    if (!is_enq) w.key("hit").value(c.aux != 0);
    w.end_object().end_object();
  }
  for (const paired_help& h : pairs.helps) {
    emit_slice("help", "help", *h.start, *h.finish);
    w.key("victim").value(static_cast<std::uint64_t>(h.finish->aux));
    w.key("victim_phase").value(h.finish->phase);
    w.end_object().end_object();
  }
  // Point-like kinds become thread-scoped instants.
  for (const trace_event* e : pairs.points) {
    emit_common(trace_kind_name(e->kind), "i", e->tid, base.to_us(e->ts));
    w.key("s").value("t");
    w.key("cat").value("event");
    w.key("args").begin_object();
    w.key("phase").value(e->phase);
    w.key("aux").value(static_cast<std::uint64_t>(e->aux));
    w.end_object().end_object();
  }

  // Flow arrows: helper's finished episode -> the victim operation's
  // completion (the victim's first completion with the episode's phase at
  // or after the help began), found through completions keyed by (tid,
  // phase) in trace order. Emitted last so both endpoints exist.
  std::map<std::pair<std::uint32_t, std::int64_t>,
           std::vector<const trace_event*>>
      completions;
  for (const paired_op& op : pairs.ops) {
    completions[{op.complete->tid, op.complete->phase}].push_back(op.complete);
  }
  std::uint64_t flow_id = 1;
  for (const paired_help& h : pairs.helps) {
    const auto key = completions.find({h.finish->aux, h.finish->phase});
    if (key == completions.end()) continue;
    const auto target = std::find_if(
        key->second.begin(), key->second.end(),
        [&](const trace_event* c) { return c->ts >= h.start->ts; });
    if (target == key->second.end()) continue;
    emit_common("helped", "s", h.finish->tid, base.to_us(h.finish->ts));
    w.key("cat").value("help_flow");
    w.key("id").value(flow_id);
    w.end_object();
    emit_common("helped", "f", (*target)->tid, base.to_us((*target)->ts));
    w.key("cat").value("help_flow");
    w.key("id").value(flow_id);
    w.key("bp").value("e");
    w.end_object();
    ++flow_id;
  }

  w.end_array();
  w.end_object();
  return std::move(w).take();
}

}  // namespace kpq::obs
