// Example: an asynchronous logger on the wait-free queue.
//
//   build/examples/async_logger [messages_per_producer]
//
// Scenario: latency-critical request threads must never block on I/O, so
// they push log records through the wait-free queue (bounded-step enqueue —
// the SLA-relevant property from the paper's §1) while a sink thread polls
// it, batches whatever has accumulated, and "writes" it. Once every
// producer has joined, the `closed` flag tells the sink to drain what is
// left and stop, without losing a record.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "harness/timing.hpp"

namespace {

struct log_record {
  std::uint32_t producer = 0;
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;
};

constexpr std::uint32_t kProducers = 3;
constexpr std::uint32_t kMaxThreads = kProducers + 1;  // + sink

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t per_producer =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;

  kpq::wf_queue_opt<log_record> log(kMaxThreads);
  std::atomic<bool> closed{false};

  // The sink: yields when idle, batches when busy.
  std::uint64_t written = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;
  std::thread sink([&] {
    const std::uint32_t tid = kProducers;
    for (;;) {
      // Read before the batch: once set, the batch below sees every record.
      const bool last = closed.load(std::memory_order_acquire);
      // Batch: grab everything that is already queued.
      std::uint64_t batch = 0;
      while (log.dequeue(tid).has_value()) ++batch;
      if (batch > 0) {
        written += batch;
        ++batches;
        if (batch > max_batch) max_batch = batch;
      } else if (last) {
        break;  // closed and drained
      } else {
        std::this_thread::yield();
      }
    }
  });

  // Producers: wait-free enqueues on the request path.
  std::vector<std::thread> producers;
  std::atomic<std::uint64_t> slowest_enqueue_ns{0};
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t worst = 0;
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        const std::uint64_t t0 = kpq::now_ns();
        log.enqueue(log_record{p, i, t0}, p);
        worst = std::max(worst, kpq::now_ns() - t0);
      }
      std::uint64_t seen = slowest_enqueue_ns.load();
      while (worst > seen &&
             !slowest_enqueue_ns.compare_exchange_weak(seen, worst)) {
      }
    });
  }
  for (auto& t : producers) t.join();
  closed.store(true, std::memory_order_release);
  sink.join();

  const std::uint64_t expected = kProducers * per_producer;
  std::printf("logged %llu/%llu records in %llu batches (max batch %llu)\n",
              static_cast<unsigned long long>(written),
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(max_batch));
  std::printf("worst producer-side enqueue: %llu ns\n",
              static_cast<unsigned long long>(slowest_enqueue_ns.load()));
  const bool ok = written == expected;
  std::printf("%s\n", ok ? "OK: no record lost" : "RECORDS LOST");
  return ok ? 0 : 1;
}
