// Example: deadline accounting — what wait-freedom buys under an SLA.
//
//   build/examples/realtime_deadline [ops_per_thread] [threads]
//
// The paper's motivation: "strict deadlines for operation completion exist,
// e.g., in real-time applications or when operating under a service level
// agreement". This example runs the same oversubscribed producer/consumer
// workload against the lock-free baseline and the wait-free queue, records
// every operation's latency, and reports how many operations would have
// blown a deadline budget — the metric an SLA owner actually cares about,
// which throughput plots hide.
//
// On a loaded machine expect the wait-free queue to trade a slower median
// for a shorter, flatter tail; the *guarantee* (bounded steps regardless of
// scheduling) holds on every machine even when the measured tail is noisy.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <thread>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "core/wf_queue.hpp"
#include "harness/stats.hpp"
#include "harness/timing.hpp"
#include "harness/workload.hpp"
#include "sync/cacheline.hpp"
#include "sync/spin_barrier.hpp"

namespace {

using namespace kpq;

struct report {
  double p50 = 0, p99 = 0, max = 0;
  std::vector<std::pair<double, double>> deadline_miss;  // (budget_us, %)
};

template <typename Q>
report run(std::uint32_t threads, std::uint64_t ops) {
  Q q(threads);
  std::vector<padded<std::vector<std::uint64_t>>> lat(threads);
  spin_barrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      auto& samples = lat[tid].get();
      samples.reserve(ops);
      fast_rng rng = thread_stream(42, tid);
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t t0 = now_ns();
        if (rng.coin()) {
          q.enqueue(encode_value(tid, i), tid);
        } else {
          (void)q.dequeue(tid);
        }
        samples.push_back(now_ns() - t0);
      }
    });
  }
  for (auto& w : workers) w.join();

  std::vector<std::uint64_t> all;
  for (auto& v : lat) all.insert(all.end(), v->begin(), v->end());
  // Sorted once: both the quantiles and the deadline counts below read it.
  std::sort(all.begin(), all.end());
  report r;
  r.p50 = static_cast<double>(nearest_rank(all, 0.50));
  r.p99 = static_cast<double>(nearest_rank(all, 0.99));
  r.max = static_cast<double>(nearest_rank(all, 1.0));
  for (std::uint64_t budget_us : {10, 100, 1000}) {
    const std::uint64_t limit_ns = budget_us * 1000;
    const auto misses = static_cast<double>(
        all.end() - std::lower_bound(all.begin(), all.end(), limit_ns));
    r.deadline_miss.emplace_back(
        static_cast<double>(budget_us),
        100.0 * misses / static_cast<double>(all.size()));
  }
  return r;
}

void print(const char* name, const report& r) {
  std::printf("%-14s p50 %7.0f ns   p99 %8.0f ns   max %9.0f ns\n", name,
              r.p50, r.p99, r.max);
  for (auto [budget, pct] : r.deadline_miss) {
    std::printf("               deadline %6.0f us: %.4f%% of ops missed\n",
                budget, pct);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t ops =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const auto threads = static_cast<std::uint32_t>(
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 8);

  std::printf(
      "deadline study: %u threads (oversubscribed), %llu mixed ops each\n\n",
      threads, static_cast<unsigned long long>(ops));

  const report lf = run<ms_queue<std::uint64_t>>(threads, ops);
  const report wf = run<wf_queue_opt<std::uint64_t>>(threads, ops);

  print("LF (MS)", lf);
  print("opt WF (1+2)", wf);

  std::printf(
      "\nNote: only the wait-free queue *guarantees* a bound on the steps\n"
      "per operation; the lock-free queue's tail is scheduler luck.\n");
  return 0;
}
