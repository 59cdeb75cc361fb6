// Observability overhead + derived wait-freedom metrics (beyond the paper).
//
// Two questions, one binary:
//
//   1. What does the tracing layer itself cost? Each wait-free variant runs
//      the enqueue-dequeue pairs workload twice IN THE SAME BUILD: once as
//      the plain queue type (no_hooks — every hook call folds away, codegen
//      identical to a hook-free build) and once as its traced twin, whose
//      hook is wf_trace (wf_options_traced). The "overhead%" column is the
//      acceptance gate: the untraced series must sit within noise of the
//      seed, and the traced series quantifies what you pay for
//      per-operation evidence.
//
//   2. What do the traces show? After each traced run the global rings are
//      drained and analyzed (obs/wf_metrics.hpp): helping-latency and
//      phase-lag distributions, ops-helped-per-op — the
//      per-operation shape of the wait-freedom claim, per variant, printed
//      and (with --json) written through write_metrics.
//
// Series: base WF (help_all + scan_max_phase), opt WF (1+2)
// (help_one + fetch_add_phase), and the 4-shard front-end over opt WF.
//
// Flags: --threads N | --full, --iters N, --reps N, --pin, --csv, --seed S,
//        --json PATH (overhead series per kpq-bench-1 + a "derived" block
//        with the per-variant trace metrics),
//        --timeline PATH (the opt WF (1+2) traced run's final repetition at
//        the last thread count as a kpq-trace-1 Perfetto timeline, with
//        helper->helped flow arrows; obs/timeline.hpp).
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/wf_queue.hpp"
#include "harness/stats.hpp"
#include "obs/calibrate.hpp"
#include "obs/export.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_ring.hpp"
#include "obs/wf_metrics.hpp"
#include "scale/sharded_queue.hpp"
#include "storage/bounded_wf_queue.hpp"

namespace {

using namespace kpq;
using namespace kpq::bench;

// Traced twins of the paper variants: identical policies, wf_trace hook.
using base_wf = wf_queue_base<std::uint64_t>;
using base_wf_traced = wf_queue<std::uint64_t, help_all, scan_max_phase,
                               hp_domain, wf_options_traced>;
using opt_wf = wf_queue_opt<std::uint64_t>;
using opt_wf_traced = wf_queue<std::uint64_t, help_one, fetch_add_phase,
                              hp_domain, wf_options_traced>;
using sharded_opt = sharded_queue<opt_wf, affinity_shards>;
using sharded_opt_traced = sharded_queue<opt_wf_traced, affinity_shards>;

/// measure_pairs with two twists: optional 4-shard construction, and a
/// global-trace reset in the per-rep setup. The reset makes the drained
/// trace cover exactly the FINAL repetition — each rep reconstructs the
/// queue, so phase numbers restart, and mixing reps would corrupt the
/// phase-lag frontier.
template <typename Q, bool Sharded>
summary measure_pairs_obs(std::uint32_t threads, const bench_params& p) {
  std::unique_ptr<Q> q;
  run_config cfg;
  cfg.threads = threads;
  cfg.reps = p.reps;
  cfg.pin = p.pin;
  return run_trials(
      cfg,
      [&](std::uint32_t) {
        obs::global_trace().reset();
        if constexpr (Sharded) {
          q = std::make_unique<Q>(4, threads);
        } else {
          q = std::make_unique<Q>(threads);
        }
      },
      [&](std::uint32_t tid) {
        for (std::uint64_t i = 0; i < p.iters; ++i) {
          q->enqueue(encode_value(tid, i), tid);
          (void)q->dequeue(tid);
        }
      });
}

struct variant_result {
  summary untraced;
  summary traced;
  obs::wf_trace_report report;  // from the traced run's final repetition
  double overhead_pct() const {
    return untraced.mean > 0.0
               ? 100.0 * (traced.mean - untraced.mean) / untraced.mean
               : 0.0;
  }
};

void print_report(const char* name, const obs::wf_trace_report& r,
                  double ticks_per_ns) {
  std::printf("-- %s: derived wait-freedom metrics (traced run) --\n", name);
  std::printf(
      "ops=%llu (enq %llu, deq %llu, empty %llu)  help episodes=%llu "
      "(%.3f/op)  retires=%llu  dropped events=%llu\n",
      static_cast<unsigned long long>(r.ops()),
      static_cast<unsigned long long>(r.enq_ops),
      static_cast<unsigned long long>(r.deq_ops),
      static_cast<unsigned long long>(r.empty_deqs),
      static_cast<unsigned long long>(r.help_episodes), r.helped_per_op(),
      static_cast<unsigned long long>(r.retires),
      static_cast<unsigned long long>(r.dropped_events));
  auto ns = [&](double q) {
    return static_cast<double>(nearest_rank(r.help_latency, q)) /
           ticks_per_ns;
  };
  auto lag = [&](double q) {
    return static_cast<unsigned long long>(nearest_rank(r.phase_lag, q));
  };
  if (r.help_episodes > 0) {
    std::printf(
        "helping latency (ns): p50 %.0f  p90 %.0f  p99 %.0f  p100 %.0f\n",
        ns(0.5), ns(0.9), ns(0.99), ns(1.0));
  } else {
    std::printf("helping latency: no episodes recorded\n");
  }
  std::printf("phase lag (phases): p50 %llu  p90 %llu  p99 %llu  "
              "p100 %llu\n\n",
              lag(0.5), lag(0.9), lag(0.99), lag(1.0));
}

/// Write one document for the --json / --timeline flag `flag`.
void write_doc(const std::string& path, const std::string& doc,
               const char* flag) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(doc.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
    std::printf("[%s written to %s]\n", flag, path.c_str());
  } else {
    std::fprintf(stderr, "could not open --%s path %s\n", flag, path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string timeline_path = cli(argc, argv).get_str("timeline", "");
  bench_params p = parse_params(argc, argv, /*default_iters=*/20000);
  const std::string json_path = p.json_path;
  p.json_path.clear();  // the figure table is embedded in our own document

  const obs::tick_calibration cal = obs::calibrate_ticks();
  const double tick_hz = cal.tick_hz;
  const double ticks_per_ns = tick_hz / 1e9;

  std::printf("== Observability overhead: traced vs untraced ==\n");
  std::printf("(tick rate ~%.2f GHz)\n\n", tick_hz / 1e9);

  const char* names[] = {"base WF", "opt WF (1+2)", "shard x4 (opt WF)"};
  table t({"threads", "series", "untraced [s]", "traced [s]", "overhead %",
           "help/op", "lag p99", "help p99 [ns]"});

  struct cell {
    std::uint32_t threads;
    int series;
    variant_result r;
  };
  std::vector<cell> cells;

  for (std::uint32_t th : p.threads) {
    for (int s = 0; s < 3; ++s) {
      variant_result r;
      if (s == 0) {
        r.untraced = measure_pairs<base_wf>(th, p);
        r.traced = measure_pairs_obs<base_wf_traced, false>(th, p);
      } else if (s == 1) {
        r.untraced = measure_pairs<opt_wf>(th, p);
        r.traced = measure_pairs_obs<opt_wf_traced, false>(th, p);
      } else {
        r.untraced = measure_pairs_obs<sharded_opt, true>(th, p);
        r.traced = measure_pairs_obs<sharded_opt_traced, true>(th, p);
      }
      std::uint64_t dropped = 0;
      const auto events = obs::global_trace().drain_all(&dropped);
      r.report = obs::analyze_trace(events, dropped, th);
      if (s == 1 && th == p.threads.back() && !timeline_path.empty()) {
        write_doc(timeline_path,
                  obs::trace_to_timeline(events, cal, dropped),
                  "timeline");
      }
      cells.push_back({th, s, r});
      t.add_row(
          {std::to_string(th), names[s], fmt(r.untraced.mean, 4),
           fmt(r.traced.mean, 4), fmt(r.overhead_pct(), 1),
           fmt(r.report.helped_per_op(), 3),
           std::to_string(nearest_rank(r.report.phase_lag, 0.99)),
           fmt(static_cast<double>(nearest_rank(r.report.help_latency, 0.99)) /
                   ticks_per_ns,
               0)});
    }
  }
  t.print();
  std::printf("\n(trace analysis covers the final repetition's retained "
              "events — nonzero 'dropped events' means the rings wrapped "
              "and\n the distributions describe the rep's tail, which at "
              "steady state is representative)\n\n");

  // Full per-variant distributions for the LAST thread count (the most
  // contended point — the one EXPERIMENTS.md records).
  const std::uint32_t last_th = p.threads.back();
  for (const cell& c : cells) {
    if (c.threads == last_th) {
      print_report(names[c.series], c.r.report, ticks_per_ns);
    }
  }

  // Bounded-queue occupancy (the scrape a long-running process would
  // expose): run the pairs workload on a bounded queue at the last thread
  // count, read its admission and memory counters, and print them as flat
  // JSON.
  bounded_wf_queue<std::uint64_t> bq(
      last_th, {.max_bytes = std::size_t{1} << 22});
  {
    std::vector<std::thread> ws;
    for (std::uint32_t tid = 0; tid < last_th; ++tid) {
      ws.emplace_back([&, tid] {
        for (std::uint64_t i = 0; i < p.iters; ++i) {
          bq.enqueue(encode_value(tid, i), tid);
          (void)bq.dequeue(tid);
        }
      });
    }
    for (auto& w : ws) w.join();
  }
  const bounded_counters bounded = bq.stats();
  const mem_counters& bounded_mem = bq.memory();
  auto write_bounded = [&](obs::json_writer& w) {
    w.begin_object();
    w.key("kpq_bounded.admitted").value(bounded.admitted);
    w.key("kpq_bounded.rejected").value(bounded.rejected);
    w.key("kpq_bounded.overwritten").value(bounded.overwritten);
    w.key("kpq_bounded_mem.live_bytes").value(bounded_mem.live_bytes());
    w.key("kpq_bounded_mem.live_objects").value(bounded_mem.live_objects());
    w.key("kpq_bounded_mem.total_allocs").value(bounded_mem.total_allocs());
    w.end_object();
  };
  {
    obs::json_writer w;
    write_bounded(w);
    std::printf("-- bounded queue occupancy (%u-thread bounded opt WF run) "
                "--\n%s\n",
                last_th, w.str().c_str());
  }

  if (p.csv) {
    std::printf("-- csv --\n");
    t.print_csv(stdout);
    std::printf("\n");
  }

  if (!json_path.empty()) {
    obs::json_writer w;
    w.begin_object();
    w.key("schema").value("kpq-bench-1");
    w.key("bench").value("Observability overhead: traced vs untraced");
    w.key("params").begin_object();
    w.key("iters").value(static_cast<std::uint64_t>(p.iters));
    w.key("reps").value(static_cast<std::uint64_t>(p.reps));
    w.key("pin").value(p.pin);
    w.key("seed").value(static_cast<std::uint64_t>(p.seed));
    w.key("tick_hz").value(tick_hz);
    w.end_object();
    w.key("x_label").value("threads");
    w.key("series").begin_array();
    for (int s = 0; s < 3; ++s) {
      for (int traced = 0; traced < 2; ++traced) {
        w.begin_object();
        w.key("name").value(std::string(names[s]) +
                            (traced ? " traced" : " untraced"));
        w.key("points").begin_array();
        for (const cell& c : cells) {
          if (c.series != s) continue;
          const summary& sm = traced ? c.r.traced : c.r.untraced;
          w.begin_object();
          w.key("x").value(static_cast<std::uint64_t>(c.threads));
          w.key("n").value(static_cast<std::uint64_t>(sm.n));
          w.key("mean_s").value(sm.mean);
          w.key("stddev_s").value(sm.stddev);
          w.key("min_s").value(sm.min);
          w.key("max_s").value(sm.max);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
    }
    w.end_array();
    // Derived trace metrics, flattened: one object per (series, threads)
    // pair.
    w.key("derived").begin_array();
    for (const cell& c : cells) {
      w.begin_object();
      w.key("series").value(names[c.series]);
      w.key("threads").value(static_cast<std::uint64_t>(c.threads));
      w.key("overhead_pct").value(c.r.overhead_pct());
      obs::write_metrics(w, "trace", c.r.report);
      w.end_object();
    }
    w.end_array();
    // The bounded-queue counters (the same object printed above).
    w.key("bounded_queue");
    write_bounded(w);
    w.end_object();
    write_doc(json_path, w.str(), "json");
  }
  return 0;
}
