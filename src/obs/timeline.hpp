// Timeline export: drained trace rings -> Chrome/Perfetto trace-event JSON.
//
// The trace rings record *points* (publish, complete, help_start, ...); a
// human debugging a tail-latency spike wants *intervals* and *causality*.
// This converter pairs the points back into:
//
//   * "X" complete slices per thread — one per enqueue/dequeue (publish ->
//     complete) and one per helping episode (help_start -> help_finish,
//     with the victim tid/phase in args).
//   * "s"/"f" flow arrows from a helper's finished episode to the victim
//     operation's completion slice — the helper->helped causality the KP
//     helping scheme creates (help episodes record the victim phase, which
//     is how the arrow finds its target).
//   * "i" instant events for the point-like kind, retire.
//
// Output is the Trace Event Format JSON object form: `ts`/`dur` are
// MICROSECONDS (doubles), mapped from ticks with a tick_calibration. The
// document carries "kpqTraceSchema":"kpq-trace-1" and is validated in CI by
// scripts/validate_trace_json.py against scripts/trace_schema.json.
// `fig_obs_overhead --timeline PATH` writes one for the traced opt WF pairs
// run; Perfetto (ui.perfetto.dev) and chrome://tracing open it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/calibrate.hpp"
#include "obs/export.hpp"
#include "obs/trace_ring.hpp"

namespace kpq::obs {

/// The timeline document's schema tag (checked by the CI validator).
inline constexpr const char* timeline_schema = "kpq-trace-1";

namespace detail {

struct pending_span {
  bool open = false;
  std::uint64_t start_ticks = 0;
  std::int64_t phase = 0;
  std::uint32_t aux = 0;
};

struct help_episode {
  std::uint32_t helper = 0;
  std::uint32_t victim = 0;
  std::int64_t victim_phase = 0;
  std::uint64_t start_ticks = 0;
  std::uint64_t finish_ticks = 0;
};

struct op_completion {
  std::uint32_t tid = 0;
  std::int64_t phase = 0;
  std::uint64_t ts_ticks = 0;
};

inline bool is_op_complete(trace_kind k) noexcept {
  return k == trace_kind::enq_complete || k == trace_kind::deq_complete;
}
inline bool is_op_publish(trace_kind k) noexcept {
  return k == trace_kind::enq_publish || k == trace_kind::deq_publish;
}

}  // namespace detail

/// Render `events` (drained, ts-sorted — trace_domain::drain_all's output)
/// as a Chrome/Perfetto trace-event JSON document. `dropped` is the ring
/// overwrite count from drain_all, surfaced in otherData so a viewer knows
/// it is looking at a suffix of the run.
inline std::string trace_to_timeline(const std::vector<trace_event>& events,
                                     const tick_calibration& cal,
                                     std::uint64_t dropped = 0) {
  using namespace detail;

  // Base the timeline at the first event so ts values stay small.
  tick_calibration base = cal;
  if (!events.empty()) base.base_ticks = events.front().ts;

  // Pass 1: collect op completions (flow-arrow targets) and help episodes.
  // Per-tid ops are sequential, so one pending slot per (tid, kind family)
  // pairs publishes with completes; same for help episodes (not nested).
  std::vector<op_completion> completions;
  std::vector<help_episode> episodes;
  std::uint32_t max_tid = 0;
  for (const trace_event& e : events) max_tid = std::max(max_tid, e.tid);
  std::vector<pending_span> pending_enq(max_tid + 1), pending_deq(max_tid + 1),
      pending_help(max_tid + 1);
  for (const trace_event& e : events) {
    switch (e.kind) {
      case trace_kind::help_start:
        pending_help[e.tid] = {true, e.ts, e.phase, e.aux};
        break;
      case trace_kind::help_finish:
        if (pending_help[e.tid].open) {
          episodes.push_back({e.tid, e.aux, e.phase,
                              pending_help[e.tid].start_ticks, e.ts});
          pending_help[e.tid].open = false;
        }
        break;
      case trace_kind::enq_complete:
      case trace_kind::deq_complete:
        completions.push_back({e.tid, e.phase, e.ts});
        break;
      default:
        break;
    }
  }

  // Pass 2: emit.
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

  // Process/thread metadata so viewers label the rows.
  w.begin_object();
  w.key("name").value("process_name");
  w.key("ph").value("M");
  w.key("pid").value(0);
  w.key("tid").value(0);
  w.key("args").begin_object().key("name").value("kpq").end_object();
  w.end_object();
  std::vector<bool> tid_seen(max_tid + 1, false);
  for (const trace_event& e : events) tid_seen[e.tid] = true;
  for (std::uint32_t t = 0; t <= max_tid; ++t) {
    if (!tid_seen[t]) continue;
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

  for (std::uint32_t t = 0; t <= max_tid; ++t) {
    pending_enq[t].open = pending_deq[t].open = pending_help[t].open = false;
  }
  for (const trace_event& e : events) {
    switch (e.kind) {
      case trace_kind::enq_publish:
        pending_enq[e.tid] = {true, e.ts, e.phase, e.aux};
        break;
      case trace_kind::deq_publish:
        pending_deq[e.tid] = {true, e.ts, e.phase, e.aux};
        break;
      case trace_kind::enq_complete:
      case trace_kind::deq_complete: {
        const bool is_enq = e.kind == trace_kind::enq_complete;
        pending_span& p = is_enq ? pending_enq[e.tid] : pending_deq[e.tid];
        if (!p.open) break;
        p.open = false;
        const double t0 = base.to_us(p.start_ticks);
        const double t1 = base.to_us(e.ts);
        emit_common(is_enq ? "enqueue" : "dequeue", "X", e.tid, t0);
        w.key("dur").value(t1 > t0 ? t1 - t0 : 0.0);
        w.key("cat").value("op");
        w.key("args").begin_object();
        w.key("phase").value(static_cast<std::int64_t>(e.phase));
        if (!is_enq) w.key("hit").value(e.aux != 0);
        w.end_object();
        w.end_object();
        break;
      }
      case trace_kind::help_start:
        pending_help[e.tid] = {true, e.ts, e.phase, e.aux};
        break;
      case trace_kind::help_finish: {
        pending_span& p = pending_help[e.tid];
        if (!p.open) break;
        p.open = false;
        const double t0 = base.to_us(p.start_ticks);
        const double t1 = base.to_us(e.ts);
        emit_common("help", "X", e.tid, t0);
        w.key("dur").value(t1 > t0 ? t1 - t0 : 0.0);
        w.key("cat").value("help");
        w.key("args").begin_object();
        w.key("victim").value(static_cast<std::uint64_t>(e.aux));
        w.key("victim_phase").value(static_cast<std::int64_t>(e.phase));
        w.end_object();
        w.end_object();
        break;
      }
      default: {
        // Point-like kinds become thread-scoped instants.
        emit_common(trace_kind_name(e.kind), "i", e.tid, base.to_us(e.ts));
        w.key("s").value("t");
        w.key("cat").value("event");
        w.key("args").begin_object();
        w.key("phase").value(static_cast<std::int64_t>(e.phase));
        w.key("aux").value(static_cast<std::uint64_t>(e.aux));
        w.end_object();
        w.end_object();
        break;
      }
    }
  }

  // Flow arrows: helper's finished episode -> the victim operation's
  // completion (first completion by the victim with the episode's phase at
  // or after the help began). Emitted last so both endpoints exist.
  std::uint64_t flow_id = 1;
  for (const help_episode& ep : episodes) {
    const op_completion* target = nullptr;
    for (const op_completion& c : completions) {
      if (c.tid == ep.victim && c.phase == ep.victim_phase &&
          c.ts_ticks >= ep.start_ticks) {
        target = &c;
        break;
      }
    }
    if (target == nullptr) continue;
    emit_common("helped", "s", ep.helper, base.to_us(ep.finish_ticks));
    w.key("cat").value("help_flow");
    w.key("id").value(flow_id);
    w.end_object();
    emit_common("helped", "f", target->tid, base.to_us(target->ts_ticks));
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
