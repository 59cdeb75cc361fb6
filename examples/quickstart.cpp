// Quickstart: the 60-second tour of the kpq public API.
//
//   build/examples/quickstart
//
// Shows: constructing a wait-free queue, implicit vs explicit thread ids,
// the optional-based dequeue contract, the paper's variants, and the
// lock-free baseline.
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"     // the Kogan-Petrank wait-free queue
#include "baseline/ms_queue.hpp" // the Michael-Scott lock-free baseline

int main() {
  // A queue must know an upper bound on the number of threads that will
  // ever touch it (the paper's NUM_THRDS) — here, 4.
  constexpr std::uint32_t kThreads = 4;
  kpq::wf_queue_opt<int> q(kThreads);  // "opt WF (1+2)": the fast variant

  // Thread ids: pass your own dense id, or omit it and the process-wide
  // registry assigns one per OS thread.
  q.enqueue(1, /*tid=*/0);
  q.enqueue(2);  // registry-assigned tid

  // dequeue returns std::optional: nullopt means the queue was empty at the
  // operation's linearization point — no exceptions, no sentinels.
  while (std::optional<int> v = q.dequeue()) {
    std::printf("dequeued %d\n", *v);
  }

  // Concurrent use: every thread needs a distinct tid < kThreads.
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&q, tid] {
      for (int i = 0; i < 1000; ++i) {
        q.enqueue(static_cast<int>(tid) * 1000 + i, tid);
        q.dequeue(tid);  // wait-free: completes in a bounded number of steps
      }
    });
  }
  for (auto& w : workers) w.join();
  std::printf("after 4x1000 enqueue/dequeue pairs, size = %zu\n",
              q.unsafe_size());

  // The paper's other variants share the same interface:
  kpq::wf_queue_base<std::string> base_variant(kThreads);   // §3.2 base
  kpq::wf_queue_opt1<std::string> help_one_only(kThreads);  // §3.3 opt 1
  base_variant.enqueue("hello", 0);
  help_one_only.enqueue("world", 0);
  std::printf("%s %s\n", base_variant.dequeue(0)->c_str(),
              help_one_only.dequeue(0)->c_str());

  // Reclamation is a policy: hazard pointers (default) or leaky (benchmarks
  // only). Hazard pointers keep every operation wait-free, as the paper
  // prescribes for C++.

  // And the lock-free baseline the paper compares against:
  kpq::ms_queue<int> lf(kThreads);
  lf.enqueue(42, 0);
  std::printf("lock-free baseline says %d\n", *lf.dequeue(0));
  return 0;
}
