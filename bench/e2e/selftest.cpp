// kpqbench selftest: the histogram against sorted-vector percentiles, and
// each correctness oracle against a queue wrapper that breaks exactly one
// item (drop, duplicate, reorder or corrupt). Exit code 0 iff all pass.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "core/wf_queue.hpp"
#include "histogram.hpp"
#include "workloads.hpp"

namespace kpqbench {
namespace {

int failed_checks = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failed_checks;
}

// ---------------------------------------------------------------- histogram

std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * n)), 1, sorted.size());
  return sorted[rank - 1];
}

void check_quantiles(const std::string& name, std::vector<std::uint64_t> xs) {
  histogram h;
  for (std::uint64_t x : xs) h.add(x);
  std::sort(xs.begin(), xs.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = static_cast<double>(nearest_rank(xs, q));
    const double got = static_cast<double>(h.quantile(q));
    const double err = exact == 0 ? got : std::fabs(got - exact) / exact;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "histogram %s p%g: %.0f vs exact %.0f (rel err %.4f <= 0.01)",
                  name.c_str(), q * 100, got, exact, err);
    expect(err <= 0.01, buf);
  }
  expect(h.quantile(1.0) == xs.back() && h.min() == xs.front(),
         "histogram " + name + " keeps exact min and max");
}

void histogram_tests() {
  expect(histogram{}.quantile(0.5) == 0, "empty histogram reports 0");
  histogram one;
  one.add(123456789);
  expect(one.quantile(0.01) == 123456789 && one.quantile(0.99) == 123456789,
         "single sample is every quantile");
  histogram small;
  for (std::uint64_t v = 0; v < 256; ++v) small.add(v);
  expect(small.quantile(0.5) == 127 && small.quantile(0.9) == 230,
         "values below 256 are exact");

  std::mt19937_64 rng(42);
  constexpr std::size_t n = 200'000;
  std::vector<std::uint64_t> xs(n);
  std::lognormal_distribution<double> lognormal(7.0, 1.2);
  for (auto& x : xs) x = static_cast<std::uint64_t>(lognormal(rng));
  check_quantiles("lognormal", xs);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (auto& x : xs) {
    x = static_cast<std::uint64_t>(500.0 / std::pow(1.0 - u(rng), 1.0 / 1.2));
  }
  check_quantiles("pareto", xs);
  std::normal_distribution<double> body(1400.0, 100.0);
  std::exponential_distribution<double> tail(1e-5);
  for (auto& x : xs) {
    const double v = u(rng) < 0.9 ? body(rng) : tail(rng);
    x = static_cast<std::uint64_t>(std::max(0.0, v));
  }
  check_quantiles("bimodal", xs);
}

// ------------------------------------------------------------------ oracles

enum class fault { none, drop, duplicate, reorder, corrupt };
fault injected = fault::none;  // set before each run's threads start

/// Wraps a queue so that its 1000th enqueue or successful dequeue
/// misbehaves in the way `injected` names.
template <typename Q>
class faulty {
 public:
  using value_type = typename Q::value_type;
  static constexpr std::uint64_t at = 1000;

  explicit faulty(std::uint32_t max_threads) : q_(max_threads) {}

  void enqueue(value_type v, std::uint32_t tid) {
    const bool hit = enqs_.fetch_add(1) + 1 == at;
    if (hit && injected == fault::drop) return;
    q_.enqueue(v, tid);
    if (hit && injected == fault::duplicate) q_.enqueue(v, tid);
  }

  std::optional<value_type> dequeue(std::uint32_t tid) {
    if (held_for_.load(std::memory_order_acquire) == tid + 1) {
      held_for_.store(0, std::memory_order_relaxed);
      return held_;
    }
    std::optional<value_type> v = q_.dequeue(tid);
    if (!v || deqs_.fetch_add(1) + 1 != at) return v;
    if (injected == fault::reorder) {
      // Hand out the next item first and this one on the caller's next call.
      if (std::optional<value_type> next = q_.dequeue(tid)) {
        held_ = *v;
        held_for_.store(tid + 1, std::memory_order_release);
        return next;
      }
    }
    if constexpr (std::is_pointer_v<value_type>) {
      if (injected == fault::corrupt) (*v)->payload ^= 1;
    }
    return v;
  }

 private:
  Q q_;
  std::atomic<std::uint64_t> enqs_{0}, deqs_{0};
  std::atomic<std::uint32_t> held_for_{0};  // tid + 1 owed `held_`
  value_type held_{};
};

failures run_faulty(fault f, const std::string& workload, std::uint32_t threads,
                    const std::vector<int>& cpus,
                    const kpq::obs::tick_calibration& cal) {
  injected = f;
  cell_spec sp;
  sp.workload = workload;
  sp.warmup_s = 0.05;
  sp.measure_s = 0.2;
  sp.threads = threads;
  sp.prefill = 20'000;
  sp.cpus = cpus;
  sp.cal = cal;
  cell_result r;
  if (workload == "pipeline") {
    run_pipeline<faulty<kpq::wf_queue_opt<std::uint64_t>>>(sp, r);
  } else if (workload == "broker") {
    run_broker<faulty<kpq::wf_queue_opt<request*>>>(sp, r);
  } else {
    run_closed_loop<faulty<kpq::wf_queue_opt<std::uint64_t>>>(sp, r);
  }
  failures total = r.fail;
  for (const auto& t : r.threads) total += t->fail;
  return total;
}

void oracle_tests(const std::vector<int>& cpus,
                  const kpq::obs::tick_calibration& cal) {
  for (const char* w : {"pairs", "fifty_deep", "pipeline", "broker"}) {
    expect(run_faulty(fault::none, w, workers, cpus, cal).total() == 0,
           std::string("oracles accept an intact queue on ") + w);
  }
  failures f = run_faulty(fault::drop, "pairs", 1, cpus, cal);
  expect(f.empty_deq > 0, "pairs: a dropped item empties a dequeue");
  expect(f.conservation > 0, "pairs: a dropped item breaks conservation");
  f = run_faulty(fault::duplicate, "pairs", workers, cpus, cal);
  expect(f.conservation > 0, "pairs: a duplicated item breaks conservation");
  f = run_faulty(fault::reorder, "fifty_deep", workers, cpus, cal);
  expect(f.order > 0, "fifty_deep: a reordered item breaks per-consumer order");
  f = run_faulty(fault::drop, "fifty_deep", workers, cpus, cal);
  expect(f.conservation > 0, "fifty_deep: a dropped item breaks conservation");
  f = run_faulty(fault::drop, "pipeline", workers, cpus, cal);
  expect(f.lost > 0, "pipeline: a dropped item is reported lost");
  f = run_faulty(fault::duplicate, "pipeline", workers, cpus, cal);
  expect(f.duplicate > 0, "pipeline: a duplicated item is reported");
  f = run_faulty(fault::corrupt, "broker", workers, cpus, cal);
  expect(f.echo > 0, "broker: a corrupted request fails its echo check");
}

}  // namespace

int run_selftest(const std::vector<int>& cpus,
                 const kpq::obs::tick_calibration& cal) {
  histogram_tests();
  oracle_tests(cpus, cal);
  std::printf("selftest: %s (%d failed)\n",
              failed_checks == 0 ? "ok" : "FAILED", failed_checks);
  return failed_checks == 0 ? 0 : 1;
}

}  // namespace kpqbench
