// Figure 10 reproduction: "Space overhead evaluation as a function of the
// initial queue size" — live heap attributable to the wait-free queues
// relative to the lock-free queue, for initial sizes 10^0 .. 10^7.
//
// The paper sampled JVM GC statistics (size of live objects, nine samples
// during an 8-thread enqueue-dequeue run) and plotted
// (base WF)/(LF) and (opt WF (1+2))/(LF). Its observations:
//   * small queues: ratio ~1, because the heap is dominated by objects that
//     are not part of the queues;
//   * large queues: ratio -> ~1.5, the per-node overhead of the enqTid and
//     deqTid fields (here deqTid lives in the head word, and the node's
//     24 bytes are value, next, enqTid and padding).
//
// Our substitution (DESIGN.md §4): an exact allocation counter wired through
// every queue replaces GC sampling. It counts only queue-attributable bytes,
// so to reproduce the paper's *whole-heap* ratio we add a fixed application
// footprint (--footprint bytes, default 1 MiB) to numerator and denominator;
// the raw node-size ratio is also printed. Nine samples are taken during the
// run, exactly like the paper.
//
// --verify-bound is the acceptance check for the bounded queue's memory
// ceiling: an extended MPMC run against bounded_wf_queue with a sampler
// thread continuously reading the exact live-byte counter (which, after the
// construction-baseline fix in mem_tracker.hpp, includes construction-time
// allocations). ANY sample above the configured ceiling is a hard failure:
// the process exits non-zero.
//
// Flags: --max-size N (default 1000000; paper reaches 10^7), --threads
// N[,N...] (default 8; a list sweeps thread counts, one series per queue
// and count), --pin (worker i on cpu i % ncpu), --iters N, --footprint
// BYTES, --csv, --json PATH (machine-readable series, schema kpq-bench-1,
// x = initial queue size), --verify-bound [--verify-ms N] [--max-bytes N]
// [--policy reject|overwrite].
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "core/wf_queue.hpp"
#include "harness/affinity.hpp"
#include "harness/cli.hpp"
#include "harness/mem_tracker.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "obs/export.hpp"
#include "storage/bounded_wf_queue.hpp"
#include "sync/spin_barrier.hpp"

namespace {

using namespace kpq;

/// Mean of nine live-byte samples taken while `threads` workers run the
/// enqueue-dequeue pairs workload on a queue prefilled with `size` elements.
template <typename Q>
double sampled_live_bytes(std::uint64_t size, std::uint32_t threads,
                          std::uint64_t iters, bool pin) {
  mem_counters mc;
  Q q(threads, &mc);
  for (std::uint64_t i = 0; i < size; ++i) {
    q.enqueue(encode_value(threads - 1, (1ULL << 32) + i), threads - 1);
  }

  spin_barrier barrier(threads + 1);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      if (pin) (void)pin_to_cpu(tid);
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < iters; ++i) {
        q.enqueue(encode_value(tid, i), tid);
        (void)q.dequeue(tid);
      }
    });
  }
  barrier.arrive_and_wait();

  running_stats samples;
  for (int s = 0; s < 9; ++s) {  // paper: nine GC samples per run
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    samples.add(static_cast<double>(mc.live_bytes()));
  }
  for (auto& w : workers) w.join();
  return samples.finish().mean;
}

/// --verify-bound: extended MPMC run on bounded_wf_queue with a continuous
/// live-byte sampler. Returns the process exit code: 0 iff no sample ever
/// exceeded the ceiling.
int verify_bound(std::uint32_t threads, std::uint64_t run_ms,
                 std::size_t max_bytes, full_policy policy) {
  using bq = bounded_wf_queue<std::uint64_t>;
  bounded_config cfg{.max_bytes = max_bytes, .policy = policy};
  bq q(threads, cfg);

  const std::uint32_t producers = threads > 1 ? threads / 2 : 1;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> attempts{0};
  spin_barrier barrier(threads + 1);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      barrier.arrive_and_wait();
      std::uint64_t n = 0;
      if (tid < producers) {
        while (!stop.load(std::memory_order_relaxed)) {
          (void)q.try_enqueue(++n, tid);
          attempts.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        while (!stop.load(std::memory_order_relaxed)) (void)q.dequeue(tid);
      }
    });
  }
  barrier.arrive_and_wait();

  // The sampler IS the verifier: the counter is exact (not sampled from a
  // GC), so one reading above the ceiling proves a violation.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(run_ms);
  std::int64_t max_seen = 0;
  std::uint64_t samples = 0, violations = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::int64_t live = q.live_bytes();
    if (live > max_seen) max_seen = live;
    if (live > static_cast<std::int64_t>(max_bytes)) ++violations;
    ++samples;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  while (q.dequeue(0).has_value()) {
  }

  const auto st = q.stats();
  std::size_t cached = 0;
  for (std::uint32_t t = 0; t < threads; ++t) cached += q.storage().cached(t);
  std::printf(
      "== bounded ceiling verification ==\n"
      "policy=%s threads=%u run_ms=%llu ceiling=%zu B\n"
      "samples=%llu max_live=%lld B (%.1f%% of ceiling) violations=%llu\n"
      "admitted=%llu rejected=%llu overwritten=%llu attempts=%llu\n"
      "nodes after drain: live=%lld cached=%zu retired=%zu allocated=%llu\n"
      "floor=%zu B\n",
      policy == full_policy::reject ? "reject" : "overwrite_oldest", threads,
      static_cast<unsigned long long>(run_ms), max_bytes,
      static_cast<unsigned long long>(samples),
      static_cast<long long>(max_seen),
      100.0 * static_cast<double>(max_seen) / static_cast<double>(max_bytes),
      static_cast<unsigned long long>(violations),
      static_cast<unsigned long long>(st.admitted),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.overwritten),
      static_cast<unsigned long long>(attempts.load()),
      static_cast<long long>(q.memory().live_objects()), cached,
      q.inner().reclaimer().pending_count(),
      static_cast<unsigned long long>(q.memory().total_allocs()),
      q.floor_bytes());
  if (violations != 0) {
    std::fprintf(stderr, "FAIL: live bytes exceeded the ceiling\n");
    return 1;
  }
  std::printf("PASS: ceiling held for the whole run\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kpq;

  cli args(argc, argv);
  if (args.get_flag("help")) {
    std::printf("%s", "flags: --max-size N (default 1000000; paper: 10000000)\n       --threads N[,N...] (default 8)  --pin  --iters N (default 2000)\n       --footprint BYTES (default 1 MiB)  --csv  --json PATH\n       --verify-bound  [--verify-ms N (default 2000)]\n       [--max-bytes N (default 1 MiB)]  [--policy reject|overwrite]\n");
    return 0;
  }
  if (args.get_flag("verify-bound")) {
    const auto vthreads =
        static_cast<std::uint32_t>(args.get_u64("threads", 4));
    const std::uint64_t verify_ms = args.get_u64("verify-ms", 2000);
    const auto max_bytes =
        static_cast<std::size_t>(args.get_u64("max-bytes", 1 << 20));
    const full_policy pol = args.get_str("policy", "reject") == "overwrite"
                                ? full_policy::overwrite_oldest
                                : full_policy::reject;
    return verify_bound(vthreads, verify_ms, max_bytes, pol);
  }
  const std::uint64_t max_size = args.get_u64("max-size", 1000000);
  std::vector<std::uint32_t> thread_counts;
  {
    const std::string list = args.get_str("threads", "8");
    for (std::size_t at = 0; at < list.size();) {
      std::size_t comma = list.find(',', at);
      if (comma == std::string::npos) comma = list.size();
      thread_counts.push_back(static_cast<std::uint32_t>(
          std::strtoul(list.substr(at, comma - at).c_str(), nullptr, 10)));
      at = comma + 1;
    }
  }
  const bool pin = args.get_flag("pin");
  const std::uint64_t iters = args.get_u64("iters", 2000);
  const double footprint = args.get_double("footprint", 1024.0 * 1024.0);
  const bool csv = args.get_flag("csv");
  const std::string json_path = args.get_str("json", "");

  std::printf("== Figure 10: space overhead vs initial queue size ==\n");
  std::printf(
      "(mean of 9 live-byte samples during an enqueue-dequeue run%s;\n"
      " ratios add a %.0f-byte application footprint to emulate the "
      "paper's whole-heap GC measurement)\n",
      pin ? ", pinned" : "", footprint);
  std::printf(
      "node sizes: LF %zu B, WF %zu B -> asymptotic raw ratio %.3f "
      "(paper: ~1.5)\n\n",
      sizeof(ms_queue<std::uint64_t>::node), sizeof(wf_node<std::uint64_t>),
      static_cast<double>(sizeof(wf_node<std::uint64_t>)) /
          static_cast<double>(sizeof(ms_queue<std::uint64_t>::node)));

  table t({"threads", "queue size", "LF [KiB]", "base WF [KiB]",
           "opt WF [KiB]", "base WF/LF", "opt WF/LF", "raw base/LF"});

  struct sample_row {
    std::uint32_t threads;
    std::uint64_t size;
    double lf, wf_base, wf_opt;
  };
  std::vector<sample_row> samples;

  for (std::uint32_t threads : thread_counts) {
    for (std::uint64_t size = 1; size <= max_size; size *= 10) {
      const double lf = sampled_live_bytes<ms_queue<std::uint64_t>>(
          size, threads, iters, pin);
      const double wf_base = sampled_live_bytes<wf_queue_base<std::uint64_t>>(
          size, threads, iters, pin);
      const double wf_opt = sampled_live_bytes<wf_queue_opt<std::uint64_t>>(
          size, threads, iters, pin);
      samples.push_back({threads, size, lf, wf_base, wf_opt});

      t.add_row({std::to_string(threads), std::to_string(size),
                 fmt(lf / 1024.0, 1), fmt(wf_base / 1024.0, 1),
                 fmt(wf_opt / 1024.0, 1),
                 fmt((wf_base + footprint) / (lf + footprint), 3),
                 fmt((wf_opt + footprint) / (lf + footprint), 3),
                 fmt(wf_base / lf, 3)});
    }
  }
  t.print();
  if (csv) {
    std::printf("\n-- csv --\n");
    t.print_csv(stdout);
  }
  if (!json_path.empty()) {
    obs::json_writer w;
    w.begin_object();
    w.key("schema").value("kpq-bench-1");
    w.key("bench").value("Figure 10: space overhead vs initial queue size");
    w.key("params").begin_object();
    w.key("iters").value(iters);
    // The largest count; series names carry each count of a sweep.
    w.key("threads").value(static_cast<std::uint64_t>(
        *std::max_element(thread_counts.begin(), thread_counts.end())));
    w.key("pin").value(pin);
    w.key("footprint").value(footprint);
    w.end_object();
    w.key("x_label").value("queue_size");
    w.key("series").begin_array();
    // One series per queue and thread count; a single count keeps the
    // plain names.
    const char* names[] = {"LF live bytes", "base WF live bytes",
                           "opt WF live bytes"};
    for (std::uint32_t threads : thread_counts) {
      for (int s = 0; s < 3; ++s) {
        std::string name = names[s];
        if (thread_counts.size() > 1) {
          name += ", " + std::to_string(threads) +
                  (threads == 1 ? " thread" : " threads");
        }
        w.begin_object();
        w.key("name").value(name);
        w.key("points").begin_array();
        for (const sample_row& r : samples) {
          if (r.threads != threads) continue;
          const double v = s == 0 ? r.lf : s == 1 ? r.wf_base : r.wf_opt;
          w.begin_object();
          w.key("x").value(r.size);
          w.key("mean_bytes").value(obs::finite_or(v));
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
    }
    w.end_array();
    w.end_object();
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fputs(w.str().c_str(), f);
      std::fputs("\n", f);
      std::fclose(f);
      std::printf("[json written to %s]\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "could not open --json path %s\n",
                   json_path.c_str());
    }
  }
  return 0;
}
