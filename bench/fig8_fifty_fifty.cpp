// Figure 8 reproduction: "Performance results of the 50% enqueues benchmark"
// — total completion time vs number of threads for LF, base WF and
// opt WF (1+2); the queue starts with 1000 elements and every operation is
// an enqueue or dequeue with equal probability.
//
// Expected shape (paper): same ordering as Figure 7 with roughly half the
// absolute time, because this benchmark issues half as many operations per
// iteration count.
//
// Beyond the paper, `WF fps` adds the Michael–Scott fast path
// (core/wf_queue_fps.hpp; see fig7_enq_deq.cpp for its expected shape).
//
// Flags: --threads N | --full, --iters N, --reps N, --prefill N, --pin,
//        --csv, --json PATH (machine-readable series, schema kpq-bench-1).
#include <cstdint>

#include "baseline/ms_queue.hpp"
#include "bench_common.hpp"
#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/cli.hpp"

int main(int argc, char** argv) {
  using namespace kpq;
  using namespace kpq::bench;

  bench_params p = parse_params(argc, argv, /*default_iters=*/20000);
  cli args(argc, argv);
  const std::uint64_t prefill = args.get_u64("prefill", 1000);

  figure fig("Figure 8: 50% enqueues, total completion time", p);
  fig.add_series("LF");
  fig.add_series("base WF");
  fig.add_series("opt WF (1+2)");
  fig.add_series("WF fps");

  for (std::uint32_t th : p.threads) {
    fig.add_cell(measure_fifty<ms_queue<std::uint64_t>>(th, p, prefill));
    fig.add_cell(measure_fifty<wf_queue_base<std::uint64_t>>(th, p, prefill));
    fig.add_cell(measure_fifty<wf_queue_opt<std::uint64_t>>(th, p, prefill));
    fig.add_cell(measure_fifty<wf_queue_fps<std::uint64_t>>(th, p, prefill));
  }
  fig.print(p.threads);
  return 0;
}
