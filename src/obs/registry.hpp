// Metrics registry: one snapshot interface over every counter surface the
// repo already has (wf_counters, shard_stats, mem_counters, reclaimer
// counters, bench summaries), feeding the JSON exporter in obs/export.hpp.
//
// Shape: a snapshot is a flat ordered list of {name, value} gauges. Sources
// are structural — append_* overloads match any type with the right members
// (concepts below), so this header does not drag in the queue headers and
// new counter structs join the registry by shape, not by registration
// ceremony. A snapshot is one append_metrics call per source, at a sampling
// point.
//
// Values are doubles, sanitized at append time: a metric that never fired
// must export 0, never NaN/inf (the n==0 guard the exporters rely on).
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace kpq::obs {

struct metric {
  std::string name;
  double value = 0.0;
};

using metrics_snapshot = std::vector<metric>;

/// NaN/inf -> fallback (default 0): exported metrics are always finite.
inline double finite_or(double v, double fallback = 0.0) noexcept {
  return std::isfinite(v) ? v : fallback;
}

inline void append_value(metrics_snapshot& out, std::string name, double v) {
  out.push_back({std::move(name), finite_or(v)});
}

// ------------------------------------------------------- structural sources

/// wf_queue's per-thread operation counters (core/wf_queue.hpp).
template <typename C>
concept wf_counter_like = requires(const C& c) {
  { c.enq_ops } -> std::convertible_to<std::uint64_t>;
  { c.deq_ops } -> std::convertible_to<std::uint64_t>;
  { c.empty_deqs } -> std::convertible_to<std::uint64_t>;
  { c.helped_enq_completions } -> std::convertible_to<std::uint64_t>;
  { c.helped_deq_completions } -> std::convertible_to<std::uint64_t>;
  { c.link_cas_failures } -> std::convertible_to<std::uint64_t>;
  { c.desc_cas_failures } -> std::convertible_to<std::uint64_t>;
};

template <wf_counter_like C>
void append_metrics(metrics_snapshot& out, const std::string& prefix,
                    const C& c) {
  append_value(out, prefix + ".enq_ops", static_cast<double>(c.enq_ops));
  append_value(out, prefix + ".deq_ops", static_cast<double>(c.deq_ops));
  append_value(out, prefix + ".empty_deqs",
               static_cast<double>(c.empty_deqs));
  append_value(out, prefix + ".helped_enq_completions",
               static_cast<double>(c.helped_enq_completions));
  append_value(out, prefix + ".helped_deq_completions",
               static_cast<double>(c.helped_deq_completions));
  append_value(out, prefix + ".link_cas_failures",
               static_cast<double>(c.link_cas_failures));
  append_value(out, prefix + ".desc_cas_failures",
               static_cast<double>(c.desc_cas_failures));
  const double ops = static_cast<double>(c.enq_ops + c.deq_ops);
  const double helped = static_cast<double>(c.helped_enq_completions +
                                            c.helped_deq_completions);
  append_value(out, prefix + ".helped_per_op", ops > 0 ? helped / ops : 0.0);
}

/// The sharded front-end's per-shard counters (scale/scale_counters.hpp).
template <typename S>
concept shard_stats_like = requires(const S& s) {
  { s.enqueued } -> std::convertible_to<std::uint64_t>;
  { s.dequeued } -> std::convertible_to<std::uint64_t>;
  { s.stolen } -> std::convertible_to<std::uint64_t>;
  { s.empty_scans } -> std::convertible_to<std::uint64_t>;
  { s.steal_rate() } -> std::convertible_to<double>;
};

template <shard_stats_like S>
void append_metrics(metrics_snapshot& out, const std::string& prefix,
                    const S& s) {
  append_value(out, prefix + ".enqueued", static_cast<double>(s.enqueued));
  append_value(out, prefix + ".dequeued", static_cast<double>(s.dequeued));
  append_value(out, prefix + ".stolen", static_cast<double>(s.stolen));
  append_value(out, prefix + ".empty_scans",
               static_cast<double>(s.empty_scans));
  append_value(out, prefix + ".depth", static_cast<double>(s.depth()));
  append_value(out, prefix + ".steal_rate", s.steal_rate());
}

/// Live-heap accounting (harness/mem_tracker.hpp).
template <typename M>
concept mem_counters_like = requires(const M& m) {
  { m.live_bytes() } -> std::convertible_to<std::int64_t>;
  { m.live_objects() } -> std::convertible_to<std::int64_t>;
  { m.total_allocs() } -> std::convertible_to<std::uint64_t>;
};

template <mem_counters_like M>
void append_metrics(metrics_snapshot& out, const std::string& prefix,
                    const M& m) {
  append_value(out, prefix + ".live_bytes",
               static_cast<double>(m.live_bytes()));
  append_value(out, prefix + ".live_objects",
               static_cast<double>(m.live_objects()));
  append_value(out, prefix + ".total_allocs",
               static_cast<double>(m.total_allocs()));
}

/// Reclamation domains (reclaim/hazard_pointers.hpp, reclaim/leaky.hpp).
template <typename R>
concept reclaimer_counters_like = requires(const R& r) {
  { r.retired_count() } -> std::convertible_to<std::uint64_t>;
  { r.freed_count() } -> std::convertible_to<std::uint64_t>;
  { r.pending_count() } -> std::convertible_to<std::size_t>;
};

template <reclaimer_counters_like R>
void append_metrics(metrics_snapshot& out, const std::string& prefix,
                    const R& r) {
  append_value(out, prefix + ".retired",
               static_cast<double>(r.retired_count()));
  append_value(out, prefix + ".freed", static_cast<double>(r.freed_count()));
  append_value(out, prefix + ".pending",
               static_cast<double>(r.pending_count()));
}

/// bounded_wf_queue admission outcomes (storage/bounded_wf_queue.hpp).
template <typename B>
concept bounded_counters_like = requires(const B& b) {
  { b.admitted } -> std::convertible_to<std::uint64_t>;
  { b.rejected } -> std::convertible_to<std::uint64_t>;
  { b.overwritten } -> std::convertible_to<std::uint64_t>;
};

template <bounded_counters_like B>
void append_metrics(metrics_snapshot& out, const std::string& prefix,
                    const B& b) {
  append_value(out, prefix + ".admitted", static_cast<double>(b.admitted));
  append_value(out, prefix + ".rejected", static_cast<double>(b.rejected));
  append_value(out, prefix + ".overwritten",
               static_cast<double>(b.overwritten));
}

/// The continuation layer's park/notify counters (sync/waiter_hub.hpp).
template <typename W>
concept waiter_hub_stats_like = requires(const W& w) {
  { w.parks } -> std::convertible_to<std::uint64_t>;
  { w.notifies } -> std::convertible_to<std::uint64_t>;
  { w.resumes } -> std::convertible_to<std::uint64_t>;
  { w.resume_ns_total } -> std::convertible_to<std::uint64_t>;
  { w.resume_ns_max } -> std::convertible_to<std::uint64_t>;
  { w.mean_resume_ns() } -> std::convertible_to<double>;
};

template <waiter_hub_stats_like W>
void append_metrics(metrics_snapshot& out, const std::string& prefix,
                    const W& w) {
  append_value(out, prefix + ".parks", static_cast<double>(w.parks));
  append_value(out, prefix + ".notifies", static_cast<double>(w.notifies));
  append_value(out, prefix + ".resumes", static_cast<double>(w.resumes));
  append_value(out, prefix + ".resume_ns_mean", w.mean_resume_ns());
  append_value(out, prefix + ".resume_ns_max",
               static_cast<double>(w.resume_ns_max));
}

/// Fast-path queues' fast/slow path split (fps_path_stats, core/wf_queue.hpp)
/// — the contention signal that shows how often the fast path gives up.
template <typename F>
concept fps_path_like = requires(const F& f) {
  { f.fast_enqs } -> std::convertible_to<std::uint64_t>;
  { f.slow_enqs } -> std::convertible_to<std::uint64_t>;
  { f.fast_deqs } -> std::convertible_to<std::uint64_t>;
  { f.slow_deqs } -> std::convertible_to<std::uint64_t>;
  { f.slow_rate() } -> std::convertible_to<double>;
};

template <fps_path_like F>
void append_metrics(metrics_snapshot& out, const std::string& prefix,
                    const F& f) {
  append_value(out, prefix + ".fast_enqs", static_cast<double>(f.fast_enqs));
  append_value(out, prefix + ".slow_enqs", static_cast<double>(f.slow_enqs));
  append_value(out, prefix + ".fast_deqs", static_cast<double>(f.fast_deqs));
  append_value(out, prefix + ".slow_deqs", static_cast<double>(f.slow_deqs));
  append_value(out, prefix + ".slow_rate", f.slow_rate());
}

/// Event-loop health (async/event_loop.hpp loop_stats): throughput counters
/// plus the latency gauges — ready-queue lag (post -> pickup; an upper
/// bound for loop-thread posts), timer slack (deadline -> fire) and the
/// high-water mark of both ready lists. Pass a loop.stats() copy: it is
/// taken under the loop's own lock.
template <typename L>
concept event_loop_stats_like = requires(const L& l) {
  { l.resumes } -> std::convertible_to<std::uint64_t>;
  { l.timer_fires } -> std::convertible_to<std::uint64_t>;
  { l.idle_parks } -> std::convertible_to<std::uint64_t>;
  { l.spawned } -> std::convertible_to<std::uint64_t>;
  { l.completed } -> std::convertible_to<std::uint64_t>;
  { l.ready_lag_ns_max } -> std::convertible_to<std::uint64_t>;
  { l.timer_slack_ns_max } -> std::convertible_to<std::uint64_t>;
  { l.max_ready_depth } -> std::convertible_to<std::uint64_t>;
  { l.mean_ready_lag_ns() } -> std::convertible_to<double>;
  { l.mean_timer_slack_ns() } -> std::convertible_to<double>;
};

template <event_loop_stats_like L>
void append_metrics(metrics_snapshot& out, const std::string& prefix,
                    const L& l) {
  append_value(out, prefix + ".resumes", static_cast<double>(l.resumes));
  append_value(out, prefix + ".timer_fires",
               static_cast<double>(l.timer_fires));
  append_value(out, prefix + ".idle_parks",
               static_cast<double>(l.idle_parks));
  append_value(out, prefix + ".spawned", static_cast<double>(l.spawned));
  append_value(out, prefix + ".completed",
               static_cast<double>(l.completed));
  append_value(out, prefix + ".ready_lag_ns_mean", l.mean_ready_lag_ns());
  append_value(out, prefix + ".ready_lag_ns_max",
               static_cast<double>(l.ready_lag_ns_max));
  append_value(out, prefix + ".timer_slack_ns_mean",
               l.mean_timer_slack_ns());
  append_value(out, prefix + ".timer_slack_ns_max",
               static_cast<double>(l.timer_slack_ns_max));
  append_value(out, prefix + ".max_ready_depth",
               static_cast<double>(l.max_ready_depth));
}

/// Bench summaries (harness/stats.hpp): exported with the n==0 guard —
/// a summary that never saw a sample exports all-zero, not NaN.
template <typename S>
concept summary_like = requires(const S& s) {
  { s.n } -> std::convertible_to<std::size_t>;
  { s.mean } -> std::convertible_to<double>;
  { s.stddev } -> std::convertible_to<double>;
  { s.min } -> std::convertible_to<double>;
  { s.max } -> std::convertible_to<double>;
};

template <summary_like S>
void append_metrics(metrics_snapshot& out, const std::string& prefix,
                    const S& s) {
  append_value(out, prefix + ".n", static_cast<double>(s.n));
  append_value(out, prefix + ".mean", s.n > 0 ? s.mean : 0.0);
  append_value(out, prefix + ".stddev", s.n > 0 ? s.stddev : 0.0);
  append_value(out, prefix + ".min", s.n > 0 ? s.min : 0.0);
  append_value(out, prefix + ".max", s.n > 0 ? s.max : 0.0);
}

}  // namespace kpq::obs
