// kpqbench: one cell (workload x queue) or one layer probe per process.
// bench/e2e/run.py drives it; every invocation prints one JSON line.
//
//   kpqbench cell  --workload W --queue opt|fps --seed N --measure-ms M
//                  [--warmup-ms 500] [--traced] [--trace-out FILE]
//   kpqbench probe --kind ladder --seed N
//   kpqbench probe --kind storage --queue opt|fps
//   kpqbench selftest
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness.hpp"
#include "harness/cli.hpp"
#include "reclaim/leaky.hpp"
#include "storage/bounded_wf_queue.hpp"
#include "sync/spin_barrier.hpp"
#include "workloads.hpp"

namespace kpqbench {
int run_selftest(const std::vector<int>& cpus,
                 const kpq::obs::tick_calibration& cal);
}  // namespace kpqbench

namespace {

using namespace kpqbench;

template <typename V>
using opt_queue = kpq::wf_queue_opt<V>;
/// The traced pass's opt WF: same algorithm, per-thread counters on.
template <typename V>
using opt_stats_queue = kpq::wf_queue<V, kpq::help_one, kpq::fetch_add_phase,
                                      kpq::hp_domain, kpq::wf_options_stats>;
template <typename V>
using fps_queue = kpq::wf_queue_fps<V>;

template <template <typename> class Q>
bool run_workload(const cell_spec& sp, cell_result& r) {
  if (sp.workload == "pairs" || sp.workload == "fifty_deep") {
    run_closed_loop<Q<std::uint64_t>>(sp, r);
  } else if (sp.workload == "pipeline") {
    run_pipeline<Q<std::uint64_t>>(sp, r);
  } else if (sp.workload == "broker") {
    if (sp.traced) {
      run_broker<spanned<Q<request*>>>(sp, r);
    } else {
      run_broker<Q<request*>>(sp, r);
    }
  } else {
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Cost of one timestamp pair (the per-call timing overhead), in ns.
double timer_pair_ns(const kpq::obs::tick_calibration& cal) {
  constexpr int iters = 1 << 16;
  std::vector<double> rounds;
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t t0 = tick_now();
    std::uint64_t acc = 0;
    for (int i = 0; i < iters; ++i) {
      const std::uint64_t a = tick_now();
      acc += tick_now() - a;
    }
    rounds.push_back(cal.delta_ns(tick_now() - t0) / iters);
    sink = sink + acc;
  }
  return median(rounds);
}

int cell_main(const kpq::cli& args, cell_spec sp) {
  sp.workload = args.get_str("workload", "pairs");
  const std::string queue = args.get_str("queue", "opt");
  sp.seed = args.get_u64("seed", 1);
  sp.warmup_s = static_cast<double>(args.get_u64("warmup-ms", 500)) * 1e-3;
  sp.measure_s = static_cast<double>(args.get_u64("measure-ms", 1000)) * 1e-3;
  sp.traced = args.get_flag("traced");
  const std::string trace_out = args.get_str("trace-out", "");

  cell_result r;
  bool known = false;
  if (queue == "opt") {
    known = sp.traced ? run_workload<opt_stats_queue>(sp, r)
                      : run_workload<opt_queue>(sp, r);
  } else if (queue == "fps") {
    known = run_workload<fps_queue>(sp, r);
  }
  if (!known) {
    std::fprintf(stderr, "kpqbench: unknown workload '%s' or queue '%s'\n",
                 sp.workload.c_str(), queue.c_str());
    return 2;
  }

  const double ns_per_tick = 1e9 / sp.cal.tick_hz;
  histogram enq, deq, item, gen_late;
  failures fail = r.fail;
  std::uint64_t completed = 0, attempted = 0, deq_calls = 0, empty = 0;
  std::uint64_t backlog_max = 0;
  std::vector<const thread_stats*> views;
  for (const auto& t : r.threads) {
    enq.merge(t->enq);
    deq.merge(t->deq);
    item.merge(t->item);
    gen_late.merge(t->gen_late);
    fail += t->fail;
    completed += t->completed;
    attempted += t->attempted;
    deq_calls += t->deq_calls;
    empty += t->empty;
    backlog_max = std::max(backlog_max, t->backlog_max);
    views.push_back(t.get());
  }
  histogram ops = enq;
  ops.merge(deq);

  if (sp.traced && !trace_out.empty()) {
    write_trace(trace_out, "kpqbench " + sp.workload + " " + queue, views,
                sp.cal);
  }

  kpq::obs::json_writer w;
  w.begin_object();
  w.key("workload").value(sp.workload);
  w.key("queue").value(queue);
  w.key("traced").value(sp.traced);
  w.key("seed").value(sp.seed);
  w.key("setup_s").value(r.setup_s);
  w.key("window_s").value(sp.measure_s);
  w.key("completed").value(completed);
  w.key("attempted").value(attempted);
  w.key("failed").value(fail.total());
  write_failures(w, fail);
  w.key("ns_per_tick").value(ns_per_tick);
  write_summary(w, "latency", r.latency_is_item ? item : ops, ns_per_tick,
                /*buckets=*/true);
  write_summary(w, "ops", ops, ns_per_tick);
  write_summary(w, "enq", enq, ns_per_tick);
  write_summary(w, "deq", deq, ns_per_tick);
  write_summary(w, "gen_late", gen_late, ns_per_tick);
  w.key("deq_calls").value(deq_calls);
  w.key("empty_deqs").value(empty);
  w.key("backlog_max").value(backlog_max);
  w.key("peak_rss_mib").value(peak_rss_mib());
  w.key("timer_ns").value(timer_pair_ns(sp.cal));
  const layer_counters& c = r.counters;
  w.key("counters").begin_object();
  w.key("ops").value(c.ops);
  w.key("helps").value(c.helps);
  w.key("link_cas_fail").value(c.link_cas_fail);
  w.key("desc_cas_fail").value(c.desc_cas_fail);
  w.key("slow").value(c.slow);
  w.key("retired").value(c.retired);
  w.key("freed").value(c.freed);
  w.key("pending").value(c.pending);
  w.end_object();
  w.key("diag").begin_object();
  for (const auto& [name, v] : r.diag) w.key(name).value(v);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ------------------------------------------------------------------ probes

/// One ladder rung: the pairs loop on `Q`, 4 pinned threads, a fixed number
/// of pairs per thread after a short warm-up (fixed counts, not a duration,
/// keep the leaky rungs' never-freed memory bounded). Returns ns per op of
/// aggregate throughput; counts empty dequeues into `failed`.
template <typename Q>
double ladder_rung(const cell_spec& sp, std::uint64_t& failed) {
  constexpr std::uint64_t warm = 5'000, pairs = 30'000;
  Q q(workers);
  kpq::spin_barrier barrier(workers);
  std::vector<std::uint64_t> start(workers), end(workers), empty(workers);
  {
    crew team(sp.cpus, workers, [&](std::uint32_t i) {
      std::uint64_t seq = 1;
      auto pair = [&] {
        q.enqueue(kpq::encode_value(i, seq++), i);
        if (!q.dequeue(i)) ++empty[i];
      };
      for (std::uint64_t k = 0; k < warm; ++k) pair();
      barrier.arrive_and_wait();
      start[i] = tick_now();
      for (std::uint64_t k = 0; k < pairs; ++k) pair();
      end[i] = tick_now();
    });
    team.run();
    failed += team.misplaced();
  }
  for (std::uint64_t e : empty) failed += e;
  const std::uint64_t t0 = *std::min_element(start.begin(), start.end());
  const std::uint64_t t1 = *std::max_element(end.begin(), end.end());
  return sp.cal.delta_ns(t1 - t0) / static_cast<double>(2 * pairs * workers);
}

int probe_main(const kpq::cli& args, const cell_spec& sp) {
  const std::string kind = args.get_str("kind", "ladder");
  kpq::obs::json_writer w;
  w.begin_object();
  w.key("probe").value(kind);
  std::uint64_t failed = 0;
  if (kind == "ladder") {
    using rung_fn = double (*)(const cell_spec&, std::uint64_t&);
    using u64 = std::uint64_t;
    const struct {
      const char* name;
      rung_fn fn;
    } rungs[] = {
        {"ms_leaky", &ladder_rung<kpq::ms_queue<u64, kpq::leaky_domain>>},
        {"ms_hp", &ladder_rung<kpq::ms_queue<u64>>},
        {"opt_leaky", &ladder_rung<kpq::wf_queue_opt<u64, kpq::leaky_domain>>},
        {"opt_hp", &ladder_rung<kpq::wf_queue_opt<u64>>},
        {"opt_hp_seg", &ladder_rung<kpq::wf_queue_opt_seg<u64>>},
        {"fps_hp", &ladder_rung<kpq::wf_queue_fps<u64>>},
    };
    constexpr std::size_t n = std::size(rungs);
    std::vector<std::vector<double>> ns(n);
    // Three rounds, each starting at a different rung; median per rung.
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (k + round * 2 + sp.seed) % n;
        ns[i].push_back(rungs[i].fn(sp, failed));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      w.key(rungs[i].name).value(median(ns[i]));
    }
  } else if (kind == "storage") {
    // Fill a fresh queue in a fresh process: RSS growth and time per item.
    const std::string queue = args.get_str("queue", "opt");
    constexpr std::uint64_t items = 1'000'000;
    auto fill = [&](auto& q) {
      const double rss0 = current_rss_bytes();
      const std::uint64_t t0 = kpq::now_ns();
      for (std::uint64_t k = 1; k <= items; ++k) {
        q.enqueue(kpq::encode_value(prefill_producer, k), 0);
      }
      const double ns = static_cast<double>(kpq::now_ns() - t0);
      w.key("items").value(items);
      w.key("rss_bytes_per_item").value((current_rss_bytes() - rss0) / items);
      w.key("prefill_ns_per_item").value(ns / items);
    };
    if (queue == "opt") {
      kpq::wf_queue_opt<std::uint64_t> q(workers);
      fill(q);
    } else if (queue == "fps") {
      kpq::wf_queue_fps<std::uint64_t> q(workers);
      fill(q);
    } else {
      std::fprintf(stderr, "kpqbench: unknown queue '%s'\n", queue.c_str());
      return 2;
    }
  } else {
    std::fprintf(stderr, "kpqbench: unknown probe '%s'\n", kind.c_str());
    return 2;
  }
  w.key("failed").value(failed);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode != "cell" && mode != "probe" && mode != "selftest") {
    std::fprintf(stderr,
                 "usage: kpqbench cell|probe|selftest [flags] "
                 "(see the header of bench/e2e/kpqbench.cpp)\n");
    return 2;
  }
  cell_spec sp;
  sp.cpus = allowed_cpus();
  if (sp.cpus.size() < workers) {
    std::fprintf(stderr,
                 "kpqbench: needs %u CPUs in its affinity mask, found %zu. "
                 "Every worker is pinned to its own CPU; running on fewer "
                 "would change the workload, so the benchmark stops here.\n",
                 workers, sp.cpus.size());
    return 3;
  }
  sp.cal = kpq::obs::calibrate_ticks(50'000'000);
  if (mode == "selftest") return run_selftest(sp.cpus, sp.cal);
  const kpq::cli args(argc, argv);  // skips the non-flag mode word
  return mode == "cell" ? cell_main(args, sp) : probe_main(args, sp);
}
