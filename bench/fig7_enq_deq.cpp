// Figure 7 reproduction: "Performance results of the enqueue-dequeue pairs
// benchmark" — total completion time vs number of threads (1..16). Six
// series:
//
//   LF            lock-free Michael–Scott queue
//   base WF       help all + phase by state scan
//   opt WF (1)    help one, cyclic + phase by state scan
//   opt WF (2)    help all + atomic phase counter
//   opt WF (1+2)  both optimizations
//   WF fps        opt WF (1+2) behind the MS fast path (beyond the paper)
//
// Figure 7 plots LF, base WF and opt WF (1+2). Figure 9 ("The impact of
// optimizations in the enqueue-dequeue benchmark") runs the same workload
// over the four WF variants, so its series live here too.
//
// The paper shows three panels (CentOS / RedHat / Ubuntu machines) because
// its headline finding is that the LF:WF ratio depends on the scheduling
// regime. This host is one regime; the --pin flag toggles the one placement
// knob we control (see DESIGN.md §4, substitutions).
//
// Expected shape (paper, Figure 7): LF fastest at low thread counts; base WF
// degrades super-linearly as threads grow (O(n) state scans + helping
// stampedes); opt WF (1+2) tracks LF within a small factor (~2-3x on
// RedHat/Ubuntu) and can cross over LF past core saturation on some
// configurations (CentOS).
//
// Expected shape (paper, Figure 9): the gain comes mainly from optimization
// 1 — the modified helping rule prevents all threads from piling onto the
// same slow peer; optimization 2's impact is minor but grows with the thread
// count.
//
// `WF fps` is the same queue with the Michael–Scott fast path in front
// (§3.3's closing suggestion, core/wf_queue_fps.hpp). Expected shape: it
// tracks LF closely — its common path IS the MS queue plus one
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
  fig.add_series("opt WF (1)");
  fig.add_series("opt WF (2)");
  fig.add_series("opt WF (1+2)");
  fig.add_series("WF fps");

  for (std::uint32_t th : p.threads) {
    fig.add_cell(measure_pairs<ms_queue<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_base<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_opt1<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_opt2<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_opt<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_fps<std::uint64_t>>(th, p));
  }
  fig.print(p.threads);
  return 0;
}
