// Sharding scaling curve (beyond the paper): the enqueue-dequeue pairs
// workload on one KP queue vs the sharded front-end at 1/2/4/8 shards
// (affinity policy, wf inner queues), with the lock-free MS queue as the
// usual LF reference.
//
// What to expect: a single KP queue's per-op cost grows with the number of
// threads coordinating on it (state scans, helping, head/tail CAS traffic).
// Sharding divides the threads that meet on any one queue by S, so
// completion time should drop roughly with S until shards outnumber
// producer/consumer pairs. The steal-rate column sanity-checks the routing:
// with affinity pairs it stays near zero (every consumer drains its own
// lane); forcing --steal-heavy (consumers' home shifted by one) shows the
// scan doing real work-stealing without losing items.
//
// A second table reports throughput (Mpairs/s), the speedup of 4 shards
// over the single queue — the PR's acceptance gate (>= 2x at 8 threads) —
// and the bulk-path variant (batch 16) whose batch-fill column shows how
// much of the amortization the fast path actually realized.
//
// Flags: --threads N | --full, --iters N, --reps N, --pin, --csv, --seed S,
//        --batch K (bulk series batch size, default 16), --steal-heavy,
//        --json PATH (machine-readable series, schema kpq-bench-1).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "bench_common.hpp"
#include "core/wf_queue.hpp"
#include "scale/sharded_queue.hpp"

namespace kpq::bench {

/// Home-shifted affinity: consumers scan from (tid+1) mod S so nearly every
/// pop is a steal — the adversarial placement for the scan.
struct shifted_affinity {
  explicit shifted_affinity(std::uint32_t s) : s_(s) {}
  template <typename T>
  std::uint32_t enqueue_shard(std::uint32_t tid, const T&) const noexcept {
    return tid % s_;
  }
  std::uint32_t home_shard(std::uint32_t tid) const noexcept {
    return (tid + 1) % s_;
  }
  static constexpr const char* name = "shifted_affinity";

 private:
  std::uint32_t s_;
};

struct sharded_point {
  summary time;
  double steal_rate = 0.0;
  double batch_fill = 0.0;
};

template <typename SQ>
sharded_point measure_sharded(std::uint32_t shards, std::uint32_t threads,
                              const bench_params& p, std::uint64_t batch) {
  std::unique_ptr<SQ> q;
  run_config cfg;
  cfg.threads = threads;
  cfg.reps = p.reps;
  cfg.pin = p.pin;
  sharded_point out;
  out.time = run_trials(
      cfg, [&](std::uint32_t) { q = std::make_unique<SQ>(shards, threads); },
      [&](std::uint32_t tid) {
        if (batch <= 1) {
          for (std::uint64_t i = 0; i < p.iters; ++i) {
            q->enqueue(encode_value(tid, i), tid);
            (void)q->dequeue(tid);
          }
        } else {
          std::vector<std::uint64_t> staging, popped;
          for (std::uint64_t i = 0; i < p.iters; i += batch) {
            const std::uint64_t k = std::min<std::uint64_t>(batch, p.iters - i);
            staging.clear();
            popped.clear();
            for (std::uint64_t j = 0; j < k; ++j) {
              staging.push_back(encode_value(tid, i + j));
            }
            q->enqueue_bulk(staging.begin(), staging.end(), tid);
            (void)q->dequeue_bulk(popped, k, tid);
          }
        }
      });
  const shard_stats agg = q->aggregate_counters();  // last rep's queue
  out.steal_rate = agg.steal_rate();
  out.batch_fill = agg.batch_fill();
  return out;
}

}  // namespace kpq::bench

int main(int argc, char** argv) {
  using namespace kpq;
  using namespace kpq::bench;

  cli pre(argc, argv);
  const std::uint64_t batch = pre.get_u64("batch", 16);
  const bool steal_heavy = pre.get_flag("steal-heavy");
  bench_params p = parse_params(argc, argv, /*default_iters=*/20000);

  using wfq = wf_queue_opt<std::uint64_t>;
  using sharded_aff = sharded_queue<wfq, affinity_shards>;
  using sharded_shift = sharded_queue<wfq, shifted_affinity>;

  figure fig("Sharding scaling: enqueue-dequeue pairs, total completion time",
             p);
  fig.add_series("LF");
  fig.add_series("WF opt x1");
  fig.add_series("shard x2");
  fig.add_series("shard x4");
  fig.add_series("shard x8");

  struct row {
    std::uint32_t threads;
    double single_s, s4_s;
    sharded_point s2, s4, s8, s4bulk;
  };
  std::vector<row> rows;

  for (std::uint32_t th : p.threads) {
    row r;
    r.threads = th;
    fig.add_cell(measure_pairs<ms_queue<std::uint64_t>>(th, p));
    const summary single = measure_pairs<wfq>(th, p);
    fig.add_cell(single);
    r.single_s = single.mean;
    auto measure = [&](std::uint32_t shards, std::uint64_t b) {
      return steal_heavy
                 ? measure_sharded<sharded_shift>(shards, th, p, b)
                 : measure_sharded<sharded_aff>(shards, th, p, b);
    };
    r.s2 = measure(2, 1);
    r.s4 = measure(4, 1);
    r.s8 = measure(8, 1);
    r.s4bulk = measure(4, batch);
    r.s4_s = r.s4.time.mean;
    fig.add_cell(r.s2.time);
    fig.add_cell(r.s4.time);
    fig.add_cell(r.s8.time);
    rows.push_back(r);
  }
  fig.print(p.threads);

  std::printf("== Throughput, steal rate, and the bulk fast path ==\n");
  std::printf("(batch series: %llu items per bulk op%s)\n",
              static_cast<unsigned long long>(batch),
              steal_heavy ? ", steal-heavy placement" : "");
  table t({"threads", "x1 Mpairs/s", "x4 Mpairs/s", "x4 speedup",
           "x4 steal%", "x8 steal%", "x4 bulk Mpairs/s", "bulk fill"});
  for (const row& r : rows) {
    const double total_pairs =
        static_cast<double>(r.threads) * static_cast<double>(p.iters);
    auto mpairs = [&](double s) { return total_pairs / s / 1e6; };
    t.add_row({std::to_string(r.threads), fmt(mpairs(r.single_s), 3),
               fmt(mpairs(r.s4_s), 3), fmt(r.single_s / r.s4_s, 2),
               fmt(100.0 * r.s4.steal_rate, 1),
               fmt(100.0 * r.s8.steal_rate, 1),
               fmt(mpairs(r.s4bulk.time.mean), 3),
               fmt(r.s4bulk.batch_fill, 1)});
  }
  t.print();
  if (p.csv) {
    std::printf("\n-- csv --\n");
    t.print_csv(stdout);
  }
  return 0;
}
