// Figure 7 reproduction: "Performance results of the enqueue-dequeue pairs
// benchmark" — total completion time vs number of threads (1..16) for the
// lock-free MS queue (LF), the base wait-free queue (base WF) and the fully
// optimized wait-free queue (opt WF (1+2)).
//
// The paper shows three panels (CentOS / RedHat / Ubuntu machines) because
// its headline finding is that the LF:WF ratio depends on the scheduling
// regime. This host is one regime; the --pin flag toggles the one placement
// knob we control (see DESIGN.md §4, substitutions).
//
// Expected shape (paper): LF fastest at low thread counts; base WF degrades
// super-linearly as threads grow (O(n) state scans + helping stampedes);
// opt WF (1+2) tracks LF within a small factor (~2-3x on RedHat/Ubuntu) and
// can cross over LF past core saturation on some configurations (CentOS).
//
// Beyond the paper, `WF fps` is the same queue with the Michael–Scott fast
// path in front (§3.3's closing suggestion, core/wf_queue_fps.hpp). Expected
// shape: it tracks LF closely — its common path IS the MS queue plus one
// announce-array probe — while keeping the wait-free guarantee; the gap
// between fps and LF is the price of wait-freedom once the per-operation
// bookkeeping is off the common path.
//
// Flags: --threads N | --full, --iters N (per thread), --reps N, --pin,
//        --csv, --json PATH (machine-readable series, schema kpq-bench-1).
#include <cstdint>

#include "baseline/ms_queue.hpp"
#include "bench_common.hpp"
#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"

int main(int argc, char** argv) {
  using namespace kpq;
  using namespace kpq::bench;

  bench_params p = parse_params(argc, argv, /*default_iters=*/20000);

  figure fig("Figure 7: enqueue-dequeue pairs, total completion time", p);
  fig.add_series("LF");
  fig.add_series("base WF");
  fig.add_series("opt WF (1+2)");
  fig.add_series("WF fps");

  for (std::uint32_t th : p.threads) {
    fig.add_cell(measure_pairs<ms_queue<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_base<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_opt<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_fps<std::uint64_t>>(th, p));
  }
  fig.print(p.threads);
  return 0;
}
