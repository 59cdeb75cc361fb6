// Shared drivers for the figure-reproduction benches.
//
// Methodology (paper §4): for each data point, spawn k threads released by a
// barrier, measure total completion time of the whole workload, repeat
// `reps` times and average. The queue is reconstructed for every repetition
// so no state leaks across trials.
//
// Scale note: the paper runs 1,000,000 iterations per thread on 8-core
// Xeons. Defaults here are scaled down so the whole bench suite completes on
// small CI machines; pass --iters/--reps/--threads to restore paper scale
// (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "obs/export.hpp"

namespace kpq::bench {

struct bench_params {
  std::vector<std::uint32_t> threads;
  std::uint64_t iters = 3000;
  std::uint32_t reps = 3;
  bool pin = false;
  bool csv = false;
  std::uint64_t seed = 0x5EED;
  /// When non-empty, the figure also writes its series to this path as JSON
  /// (schema: scripts/bench_schema.json, validated in CI).
  std::string json_path;
};

inline bench_params parse_params(int argc, char** argv,
                                 std::uint64_t default_iters) {
  cli args(argc, argv);
  if (args.get_flag("help")) {
    std::printf(
        "flags: --threads N | --full (sweep 1..16)   thread counts\n"
        "       --iters N      iterations per thread (default %llu;\n"
        "                      paper scale: 1000000)\n"
        "       --reps N       repetitions per data point (default 3)\n"
        "       --seed S       workload RNG seed\n"
        "       --pin          pin worker i to cpu i %% ncpu\n"
        "       --csv          also print a CSV block\n"
        "       --json PATH    write the series as machine-readable JSON\n",
        static_cast<unsigned long long>(default_iters));
    std::exit(0);
  }
  bench_params p;
  p.iters = args.get_u64("iters", default_iters);
  p.reps = static_cast<std::uint32_t>(args.get_u64("reps", 3));
  p.pin = args.get_flag("pin");
  p.csv = args.get_flag("csv");
  p.seed = args.get_u64("seed", 0x5EED);
  p.json_path = args.get_str("json", "");
  if (args.get_flag("full")) {
    for (std::uint32_t t = 1; t <= 16; ++t) p.threads.push_back(t);
  } else if (std::uint64_t t = args.get_u64("threads", 0); t != 0) {
    p.threads.push_back(static_cast<std::uint32_t>(t));
  } else {
    p.threads = {1, 2, 4, 8, 12, 16};  // paper sweeps 1..16
  }
  return p;
}

/// enqueue-dequeue pairs benchmark (paper Figures 7 and 9): queue starts
/// empty; every thread alternates enqueue and dequeue, `iters` pairs each.
template <typename Q>
summary measure_pairs(std::uint32_t threads, const bench_params& p) {
  std::unique_ptr<Q> q;
  run_config cfg;
  cfg.threads = threads;
  cfg.reps = p.reps;
  cfg.pin = p.pin;
  return run_trials(
      cfg, [&](std::uint32_t) { q = std::make_unique<Q>(threads); },
      [&](std::uint32_t tid) {
        for (std::uint64_t i = 0; i < p.iters; ++i) {
          q->enqueue(encode_value(tid, i), tid);
          (void)q->dequeue(tid);
        }
      });
}

/// 50% enqueues benchmark (paper Figure 8): queue prefilled with 1000
/// elements; every thread performs `iters` operations, each enqueue or
/// dequeue with equal probability.
template <typename Q>
summary measure_fifty(std::uint32_t threads, const bench_params& p,
                      std::uint64_t prefill = 1000) {
  std::unique_ptr<Q> q;
  run_config cfg;
  cfg.threads = threads;
  cfg.reps = p.reps;
  cfg.pin = p.pin;
  return run_trials(
      cfg,
      [&](std::uint32_t) {
        q = std::make_unique<Q>(threads);
        for (std::uint64_t i = 0; i < prefill; ++i) {
          q->enqueue(encode_value(threads - 1, (1ULL << 32) + i), threads - 1);
        }
      },
      [&](std::uint32_t tid) {
        fast_rng rng = thread_stream(p.seed, tid);
        std::uint64_t seq = 0;
        for (std::uint64_t i = 0; i < p.iters; ++i) {
          if (rng.coin()) {
            q->enqueue(encode_value(tid, seq++), tid);
          } else {
            (void)q->dequeue(tid);
          }
        }
      });
}

/// One figure = one table: rows are thread counts, columns are algorithm
/// series (mean seconds over reps, like the paper's y-axis).
class figure {
 public:
  figure(std::string title, const bench_params& p) : title_(std::move(title)), p_(p) {}

  void add_series(const std::string& name) { names_.push_back(name); }
  void add_cell(summary s) { cells_.push_back(s); }

  /// Call once per thread count after adding one cell per series.
  void print(const std::vector<std::uint32_t>& threads) const {
    std::printf("== %s ==\n", title_.c_str());
    std::printf("(mean total completion time over %u reps, %llu iters/thread%s)\n",
                p_.reps, static_cast<unsigned long long>(p_.iters),
                p_.pin ? ", pinned" : "");
    std::vector<std::string> headers{"threads"};
    for (const auto& n : names_) {
      headers.push_back(n + " [s]");
      headers.push_back(n + " sd");
    }
    table t(headers);
    std::size_t idx = 0;
    for (std::uint32_t th : threads) {
      std::vector<std::string> row{std::to_string(th)};
      for (std::size_t s = 0; s < names_.size(); ++s) {
        const summary& sm = cells_.at(idx++);
        row.push_back(fmt(sm.mean, 4));
        row.push_back(fmt(sm.stddev, 4));
      }
      t.add_row(std::move(row));
    }
    t.print();
    if (p_.csv) {
      std::printf("\n-- csv --\n");
      t.print_csv(stdout);
    }
    if (!p_.json_path.empty()) write_json(threads);
    std::printf("\n");
  }

  /// Machine-readable emission (--json): one document per figure, schema
  /// "kpq-bench-1" (scripts/bench_schema.json). Cells are laid out exactly
  /// as print() consumes them: per thread count, one summary per series.
  void write_json(const std::vector<std::uint32_t>& threads) const {
    obs::json_writer w;
    w.begin_object();
    w.key("schema").value("kpq-bench-1");
    w.key("bench").value(title_);
    w.key("params").begin_object();
    w.key("iters").value(static_cast<std::uint64_t>(p_.iters));
    w.key("reps").value(static_cast<std::uint64_t>(p_.reps));
    w.key("pin").value(p_.pin);
    w.key("seed").value(static_cast<std::uint64_t>(p_.seed));
    w.end_object();
    w.key("x_label").value("threads");
    w.key("series").begin_array();
    for (std::size_t s = 0; s < names_.size(); ++s) {
      w.begin_object();
      w.key("name").value(names_[s]);
      w.key("points").begin_array();
      for (std::size_t ti = 0; ti < threads.size(); ++ti) {
        const std::size_t idx = ti * names_.size() + s;
        if (idx >= cells_.size()) break;
        const summary& sm = cells_[idx];
        w.begin_object();
        w.key("x").value(static_cast<std::uint64_t>(threads[ti]));
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
    w.end_array();
    w.end_object();
    if (std::FILE* f = std::fopen(p_.json_path.c_str(), "w")) {
      std::fputs(w.str().c_str(), f);
      std::fputs("\n", f);
      std::fclose(f);
      std::printf("[json written to %s]\n", p_.json_path.c_str());
    } else {
      std::fprintf(stderr, "could not open --json path %s\n",
                   p_.json_path.c_str());
    }
  }

 private:
  std::string title_;
  bench_params p_;
  std::vector<std::string> names_;
  std::vector<summary> cells_;
};

}  // namespace kpq::bench
