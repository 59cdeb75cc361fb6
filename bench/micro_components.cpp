// Beyond-paper ablation: cost of the individual mechanisms the wait-free
// queue is built from, so the figure-level differences can be attributed:
//
//   * phase assignment: state-array scan (base) vs fetch-add (§3.3
//     optimization 2 in isolation);
//   * helping: help_one vs help_all (§3.3 optimization 1 in isolation);
//   * hazard-pointer protect/clear vs plain atomic load (what §3.4's
//     prescription costs per read);
//   * thread-registry id lookup (the hidden cost of the tid-free API).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/wf_queue.hpp"
#include "harness/workload.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "sync/thread_registry.hpp"

namespace {

using namespace kpq;

// ---------------------------------------------------------- phase policies

template <typename Q>
void bm_queue_pairs_1thread(benchmark::State& state) {
  Q q(8);  // sized for 8 threads: the scan policy pays for all 8 slots
  std::uint64_t seq = 0;
  for (auto _ : state) {
    q.enqueue(encode_value(0, seq++), 0);
    benchmark::DoNotOptimize(q.dequeue(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * seq));
}

// ------------------------------------------------------------ hp primitives

void bm_hp_protect(benchmark::State& state) {
  hp_domain d(1, 4);
  std::atomic<int*> src{new int(7)};
  auto g = d.enter(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.protect(0, src));
    g.clear(0);
  }
  delete src.load();
}

void bm_plain_load(benchmark::State& state) {
  std::atomic<int*> src{new int(7)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.load(std::memory_order_acquire));
  }
  delete src.load();
}

void bm_hp_retire_scan(benchmark::State& state) {
  hp_domain d(1, 4, /*scan_threshold=*/64);
  for (auto _ : state) {
    d.retire(0, new int(1), [](void*, void* p) { delete static_cast<int*>(p); },
             nullptr);
  }
}

// -------------------------------------------------------------- registry

void bm_registry_lookup(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(this_thread_id());
  }
}

}  // namespace

BENCHMARK_TEMPLATE(bm_queue_pairs_1thread,
                   wf_queue<std::uint64_t, help_all, scan_max_phase>)
    ->Name("phase/scan_max_phase(n=8)");
BENCHMARK_TEMPLATE(bm_queue_pairs_1thread,
                   wf_queue<std::uint64_t, help_all, fetch_add_phase>)
    ->Name("phase/fetch_add");

BENCHMARK_TEMPLATE(bm_queue_pairs_1thread,
                   wf_queue<std::uint64_t, help_one, fetch_add_phase>)
    ->Name("help/help_one");
BENCHMARK_TEMPLATE(bm_queue_pairs_1thread,
                   wf_queue<std::uint64_t, help_all, fetch_add_phase>)
    ->Name("help/help_all(n=8)");

BENCHMARK(bm_hp_protect)->Name("hp/protect+clear");
BENCHMARK(bm_plain_load)->Name("hp/plain_acquire_load");
BENCHMARK(bm_hp_retire_scan)->Name("hp/retire(amortized_scan)");
BENCHMARK(bm_registry_lookup)->Name("registry/this_thread_id");

BENCHMARK_MAIN();
