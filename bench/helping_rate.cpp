// Beyond-paper bench: how much helping actually happens.
//
// The paper explains its Figure 9 result by helping dynamics — the base
// algorithm lets "all threads try to help the same (or a few) thread(s),
// wasting the total processing time", which optimization 1 suppresses. This
// bench measures those dynamics directly with the stats-instrumented queue:
// for each helping policy, the fraction of operations whose completion step
// was executed by a thread other than the owner, plus wasted CAS work.
//
// Expected shape: helped-op fraction and failed-CAS counts are highest with
// help_all (everyone piles on), drop sharply with help_one, and
// all policies help more as the thread count (and hence preemption inside
// operations) grows.
//
// Flags: --iters N (pairs/thread), --threads N | --full, --reps N, --csv.
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/wf_queue.hpp"
#include "sync/spin_barrier.hpp"

namespace {

using namespace kpq;
using namespace kpq::bench;

struct rate_row {
  double helped_pct;       // completions done for another thread / total ops
  double desc_cas_fail_per_kop;
  double link_cas_fail_per_kop;
};

template <typename HelpPolicy>
rate_row measure(std::uint32_t threads, std::uint64_t iters) {
  using Q = wf_queue<std::uint64_t, HelpPolicy, fetch_add_phase, hp_domain,
                     wf_options_stats>;
  Q q(threads);
  spin_barrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < iters; ++i) {
        q.enqueue(encode_value(tid, i), tid);
        (void)q.dequeue(tid);
      }
    });
  }
  for (auto& w : workers) w.join();

  const wf_counters c = q.aggregate_counters();
  const double ops = static_cast<double>(c.enq_ops + c.deq_ops);
  const double helped = static_cast<double>(c.helped_enq_completions +
                                            c.helped_deq_completions);
  return {100.0 * helped / ops,
          1000.0 * static_cast<double>(c.desc_cas_failures) / ops,
          1000.0 * static_cast<double>(c.link_cas_failures) / ops};
}

}  // namespace

int main(int argc, char** argv) {
  bench_params p = parse_params(argc, argv, /*default_iters=*/10000);

  std::printf("== Helping dynamics by policy (enqueue-dequeue pairs, %llu/thread) ==\n",
              static_cast<unsigned long long>(p.iters));
  std::printf("helped%% = operations whose completion CAS was won by a non-owner\n\n");

  table t({"threads", "help_all helped%", "help_one helped%",
           "help_all descCASfail/kop", "help_one descCASfail/kop"});
  for (std::uint32_t th : p.threads) {
    const rate_row all = measure<help_all>(th, p.iters);
    const rate_row one = measure<help_one>(th, p.iters);
    t.add_row({std::to_string(th), fmt(all.helped_pct, 2),
               fmt(one.helped_pct, 2), fmt(all.desc_cas_fail_per_kop, 2),
               fmt(one.desc_cas_fail_per_kop, 2)});
  }
  t.print();
  if (p.csv) {
    std::printf("\n-- csv --\n");
    t.print_csv(stdout);
  }
  return 0;
}
