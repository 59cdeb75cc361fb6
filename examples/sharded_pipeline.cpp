// Example: fan-in/fan-out over the sharded front-end.
//
//   build/examples/sharded_pipeline [items_per_producer] [shards]
//
// Scenario: a telemetry fan-in — several producers each emit an ordered
// stream of readings, a pool of consumers drains them. The sharded queue
// gives each producer its own lane (affinity policy: per-producer FIFO is
// per-shard FIFO), consumers prefer their own lane and steal from the
// others when idle. Every enqueue and dequeue is one operation on one KP
// inner queue.
//
// Self-validation (exits nonzero on any inconsistency):
//   * conservation — every produced item consumed exactly once;
//   * per-producer order — each consumer's view of any one producer's
//     stream is strictly increasing (a consumer's pops from the producer's
//     shard are a subsequence of that shard's FIFO order);
//   * the steal counters agree with the front-end's accounting.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "harness/workload.hpp"
#include "scale/sharded_queue.hpp"

namespace {

constexpr std::uint32_t kProducers = 4;
constexpr std::uint32_t kConsumers = 4;
constexpr std::uint32_t kMaxThreads = kProducers + kConsumers;

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t items_per_producer =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  std::uint32_t shards =
      argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10))
               : 4;
  if (shards == 0) {
    std::fprintf(stderr, "shards must be >= 1 (got '%s')\n", argv[2]);
    return 2;
  }

  kpq::sharded_queue<kpq::wf_queue_opt<std::uint64_t>> q(shards, kMaxThreads);

  std::atomic<std::uint32_t> producers_done{0};
  std::atomic<std::uint64_t> consumed_total{0};
  std::atomic<bool> order_ok{true};
  std::vector<std::thread> threads;

  // Producers: tids 0..kProducers-1, each emitting an ordered stream.
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      const std::uint32_t tid = p;
      for (std::uint64_t i = 0; i < items_per_producer; ++i) {
        q.enqueue(kpq::encode_value(p, i), tid);
      }
      producers_done.fetch_add(1);
    });
  }

  // Consumers: tids kProducers..kMaxThreads-1, draining + stealing.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kProducers) * items_per_producer;
  for (std::uint32_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      const std::uint32_t tid = kProducers + c;
      std::vector<std::int64_t> last_seq(kProducers, -1);
      for (;;) {
        const std::optional<std::uint64_t> v = q.dequeue(tid);
        if (!v) {
          if (producers_done.load() == kProducers &&
              consumed_total.load() >= expected) {
            break;
          }
          std::this_thread::yield();
          continue;
        }
        const std::uint32_t from = kpq::value_tid(*v);
        const auto seq = static_cast<std::int64_t>(kpq::value_seq(*v));
        if (seq <= last_seq[from]) order_ok.store(false);
        last_seq[from] = seq;
        consumed_total.fetch_add(1);
      }
    });
  }

  for (auto& t : threads) t.join();

  const kpq::shard_stats agg = q.aggregate_counters();
  std::printf("sharded_pipeline: %u producers -> %u shards -> %u consumers\n",
              kProducers, shards, kConsumers);
  std::printf("consumed %llu / %llu items, steal rate %.1f%%, "
              "residual depth %lld\n",
              static_cast<unsigned long long>(consumed_total.load()),
              static_cast<unsigned long long>(expected),
              100.0 * agg.steal_rate(), static_cast<long long>(agg.depth()));

  const bool ok = consumed_total.load() == expected && order_ok.load() &&
                  agg.enqueued == expected && agg.dequeued == expected &&
                  agg.depth() == 0 && q.unsafe_size() == 0;
  std::printf("%s\n", ok ? "OK: conserved, per-producer ordered, drained"
                         : "MISMATCH");
  return ok ? 0 : 1;
}
