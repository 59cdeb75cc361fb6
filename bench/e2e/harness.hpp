// kpqbench harness: CPU placement, the per-thread measurement record, the
// span ring behind the traced pass, and the correctness oracles.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "histogram.hpp"
#include "obs/calibrate.hpp"
#include "obs/export.hpp"
#include "obs/trace_ring.hpp"

namespace kpqbench {

using kpq::obs::tick_now;

inline constexpr std::uint32_t workers = 4;

// ------------------------------------------------------------- placement

/// CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread to `cpu` and spot-checks that it runs there.
inline bool pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return false;
  }
  return sched_getcpu() == cpu;
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives exec, so it would report the forking parent's RSS
/// whenever that was larger.)
inline double peak_rss_mib() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

/// Resident set size right now (bytes), from /proc/self/statm.
inline double current_rss_bytes() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// ------------------------------------------------------------------ spans

enum span_name : std::uint8_t {
  sp_enqueue,
  sp_dequeue,
  sp_co_enqueue,
  sp_co_dequeue_any,
  sp_session_resume,
};
inline constexpr std::array<const char*, 5> span_names = {
    "enqueue", "dequeue", "co_enqueue", "co_dequeue_any", "session_resume"};

/// One public call the benchmark made: TSC interval plus the item or
/// request it carried (0 when none, e.g. an empty dequeue).
struct span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t id = 0;
  span_name name = sp_enqueue;
};

/// The last `capacity` spans of one thread, written at exit.
class span_ring {
 public:
  static constexpr std::size_t capacity = 65536;
  void push(const span& s) noexcept { buf_[n_++ % capacity] = s; }
  /// Retained spans, oldest first.
  template <typename F>
  void for_each(F f) const {
    const std::uint64_t first = n_ > capacity ? n_ - capacity : 0;
    for (std::uint64_t i = first; i < n_; ++i) f(buf_[i % capacity]);
  }

 private:
  std::vector<span> buf_ = std::vector<span>(capacity);
  std::uint64_t n_ = 0;
};

// ------------------------------------------------------------- per thread

/// Violations found by the oracles; any non-zero field fails the run.
struct failures {
  std::uint64_t empty_deq = 0;     // a dequeue that must succeed was empty
  std::uint64_t order = 0;         // a producer's items arrived out of order
  std::uint64_t conservation = 0;  // enqueued != dequeued + drained
  std::uint64_t lost = 0;          // pipeline item never delivered
  std::uint64_t duplicate = 0;     // pipeline item delivered twice
  std::uint64_t late_drain = 0;    // pipeline backlog outlived its deadline
  std::uint64_t echo = 0;          // broker reply did not match its request
  std::uint64_t placement = 0;     // a worker was not on its CPU

  failures& operator+=(const failures& o) noexcept {
    empty_deq += o.empty_deq;
    order += o.order;
    conservation += o.conservation;
    lost += o.lost;
    duplicate += o.duplicate;
    late_drain += o.late_drain;
    echo += o.echo;
    placement += o.placement;
    return *this;
  }
  std::uint64_t total() const noexcept {
    return empty_deq + order + conservation + lost + duplicate + late_drain +
           echo + placement;
  }
};

/// Count and xor-sum of a multiset of item values (conservation oracle).
struct tally {
  std::uint64_t count = 0;
  std::uint64_t xor_sum = 0;
  void add(std::uint64_t v) noexcept {
    ++count;
    xor_sum ^= v;
  }
  tally& operator+=(const tally& o) noexcept {
    count += o.count;
    xor_sum ^= o.xor_sum;
    return *this;
  }
};

/// Per-consumer FIFO oracle: items of each producer must arrive in
/// increasing sequence order (kpq::encode_value layout).
class order_check {
 public:
  /// Returns false on a violation.
  bool admit(std::uint32_t producer, std::uint64_t seq) noexcept {
    if (producer >= last_.size()) last_.resize(producer + 1, -1);
    const auto s = static_cast<std::int64_t>(seq);
    const bool ok = s > last_[producer];
    last_[producer] = s;
    return ok;
  }

 private:
  std::vector<std::int64_t> last_;
};

/// Everything one worker thread measures. Latencies are TSC ticks of calls
/// that started inside the measurement window; tallies cover the whole run.
struct thread_stats {
  histogram enq, deq;   // per-call latency
  histogram item;       // pipeline delivery / broker round trip
  histogram gen_late;   // pipeline producer lateness
  std::uint64_t completed = 0;  // successful calls started in the window
  std::uint64_t deq_calls = 0;  // dequeue calls started in the window
  std::uint64_t empty = 0;      // ... of which came back empty
  std::uint64_t attempted = 0;  // all calls, warm-up included
  std::uint64_t backlog_max = 0;
  tally enqueued, dequeued;
  order_check order;
  failures fail;
  std::unique_ptr<span_ring> ring;  // traced pass only

  explicit thread_stats(bool traced)
      : ring(traced ? std::make_unique<span_ring>() : nullptr) {}

  void record(span_name n, std::uint64_t s, std::uint64_t e,
              std::uint64_t id) noexcept {
    if (ring) ring->push({s, e, id, n});
  }
};

/// The measurement window in ticks: warm-up runs from `start` to `t0`.
struct window {
  std::uint64_t start = 0, t0 = 0, t1 = 0;
  bool contains(std::uint64_t t) const noexcept { return t >= t0 && t < t1; }
};

// ---------------------------------------------------------------- output

/// Quantiles of `h` in ns; with `buckets`, also its non-empty buckets as
/// [index, count] pairs so that run.py can pool several cells exactly.
inline void write_summary(kpq::obs::json_writer& w, const char* key,
                          const histogram& h, double ns_per_tick,
                          bool buckets = false) {
  auto ns = [&](std::uint64_t t) {
    return static_cast<double>(t) * ns_per_tick;
  };
  w.key(key).begin_object();
  w.key("n").value(h.count());
  w.key("p50_ns").value(ns(h.quantile(0.50)));
  w.key("p90_ns").value(ns(h.quantile(0.90)));
  w.key("p99_ns").value(ns(h.quantile(0.99)));
  w.key("p999_ns").value(ns(h.quantile(0.999)));
  w.key("min_ns").value(ns(h.min()));
  w.key("max_ns").value(ns(h.max()));
  if (buckets) {
    w.key("buckets").begin_array();
    h.for_each_bucket([&](std::size_t i, std::uint64_t n) {
      w.begin_array().value(static_cast<std::uint64_t>(i)).value(n).end_array();
    });
    w.end_array();
  }
  w.end_object();
}

inline void write_failures(kpq::obs::json_writer& w, const failures& f) {
  w.key("failures").begin_object();
  w.key("empty_deq").value(f.empty_deq);
  w.key("order").value(f.order);
  w.key("conservation").value(f.conservation);
  w.key("lost").value(f.lost);
  w.key("duplicate").value(f.duplicate);
  w.key("late_drain").value(f.late_drain);
  w.key("echo").value(f.echo);
  w.key("placement").value(f.placement);
  w.end_object();
}

/// Writes the retained spans of every thread as Chrome/Perfetto trace-event
/// JSON: one "X" slice per span, and a flow arrow from each enqueue-kind
/// span to the dequeue-kind span that returned the same id, when both ends
/// are still retained.
inline void write_trace(const std::string& path,
                               const std::string& title,
                               const std::vector<const thread_stats*>& threads,
                               const kpq::obs::tick_calibration& cal) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "kpqbench: cannot write trace %s\n", path.c_str());
    return;
  }
  struct end_ref {
    std::size_t thread;
    double ts;
  };
  // Flow ends sit mid-slice so the viewer binds them to the right slice.
  auto mid_us = [&](const span& s) {
    return (cal.to_us(s.start) + cal.to_us(s.end)) / 2;
  };
  // Producer side of each flow, keyed by (id, consumer span kind).
  std::unordered_map<std::uint64_t, end_ref> produced;
  auto flow_key = [](std::uint64_t id, span_name consumer) {
    return id * 8 + consumer;
  };
  for (std::size_t t = 0; t < threads.size(); ++t) {
    if (!threads[t]->ring) continue;
    threads[t]->ring->for_each([&](const span& s) {
      if (s.id == 0) return;
      if (s.name == sp_enqueue) {
        produced[flow_key(s.id, sp_dequeue)] = {t, mid_us(s)};
      } else if (s.name == sp_co_enqueue) {
        produced[flow_key(s.id, sp_co_dequeue_any)] = {t, mid_us(s)};
      }
    });
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               title.c_str());
  std::size_t flows = 0;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    if (!threads[t]->ring) continue;
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"worker %zu\"}}",
                 t, t);
    threads[t]->ring->for_each([&](const span& s) {
      const double ts = cal.to_us(s.start);
      const double dur = cal.to_us(s.end) - ts;
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.4f,\"dur\":%.4f,\"args\":{\"id\":%llu}}",
                   span_names[s.name], t, ts, dur,
                   static_cast<unsigned long long>(s.id));
      if (s.id == 0 || (s.name != sp_dequeue && s.name != sp_co_dequeue_any)) {
        return;
      }
      const auto it = produced.find(flow_key(s.id, s.name));
      if (it == produced.end()) return;
      ++flows;
      std::fprintf(f,
                   ",\n{\"ph\":\"s\",\"name\":\"item\",\"cat\":\"flow\","
                   "\"id\":%zu,\"pid\":1,\"tid\":%zu,\"ts\":%.4f}"
                   ",\n{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"item\","
                   "\"cat\":\"flow\",\"id\":%zu,\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.4f}",
                   flows, it->second.thread, it->second.ts, flows, t,
                   mid_us(s));
      produced.erase(it);
    });
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace kpqbench
