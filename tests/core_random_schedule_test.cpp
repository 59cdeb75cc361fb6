// Randomized long-schedule fuzzing of the KP queue that ships.
//
// Complements the exhaustive explorer (core_interleave_test): where that
// test enumerates every interleaving of 2-3 operations within a preemption
// bound, this one samples thousands of random schedules over much longer
// programs — several threads each executing a sequence of operations on
// the real wf_queue, the baton scheduler (tests/support/baton.hpp) picking
// a uniformly random thread before every shared access. Hazard pointers
// scan on every retirement. The Freeing suite frees every reclaimed node
// instead of recycling it (testing::freeing_storage), so under
// AddressSanitizer a read of a reclaimed node fails the run. Each run's
// full history (baton-clock timestamps) is validated by the FIFO checker;
// small runs are additionally cross-checked by the exact linearizability
// checker.
//
// Deterministic: every schedule derives from a seed; a failure prints the
// seed and the replayable schedule string.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/workload.hpp"
#include "core/wf_queue_fps.hpp"
#include "support/baton.hpp"
#include "support/fault_storage.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq {
namespace {

using testing::baton;
using testing::baton_options;
using testing::eager_hp_domain;
using testing::program;

using base_queue = wf_queue<std::uint64_t, help_all, scan_max_phase,
                            eager_hp_domain, baton_options>;
using freeing_base_queue =
    wf_queue<std::uint64_t, help_all, scan_max_phase, eager_hp_domain,
             baton_options, testing::freeing_storage<std::uint64_t>>;
/// One fast attempt: a single interfering step sends an operation to the
/// slow path, so both paths and their cross-path helping run.
struct fuzz_fps_options : fps_options {
  using hooks = baton::hook;
  using fast_path = ms_fast_path<1>;
};
using freeing_fps_queue =
    wf_queue_fps<std::uint64_t, eager_hp_domain, fuzz_fps_options,
                 testing::freeing_storage<std::uint64_t>>;

/// Runs one random schedule on queue type Q over `b`'s workers (one per
/// thread); returns the check result.
template <typename Q = base_queue>
check_result run_random(baton& b, std::uint64_t seed,
                        std::uint32_t ops_per_thread, std::uint32_t enq_bias,
                        std::vector<op_event>* history_out = nullptr) {
  const std::uint32_t threads = b.workers();
  fast_rng rng(seed);
  std::vector<program> progs(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    for (std::uint32_t i = 0; i < ops_per_thread; ++i) {
      progs[t].push_back({rng.bernoulli(enq_bias, 100), encode_value(t, i)});
    }
  }

  Q q(threads);
  testing::random_chooser c(rng.next());
  std::vector<op_event> h = testing::run_programs(b, c, q, progs);
  if (history_out != nullptr) *history_out = h;
  const std::vector<std::uint64_t> drained = testing::drain(q, 0, history_out);
  check_result r = fifo_checker::check(h, drained);
  if (!r.ok) r.fail("schedule \"" + b.schedule() + "\"");
  return r;
}

TEST(RandomScheduleFuzz, ManySeedsMediumPrograms) {
  baton b(4);
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    auto r = run_random(b, seed, /*ops=*/6, /*enq_bias=*/60);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzz, DequeueHeavyHitsEmptyPaths) {
  baton b(3);
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    auto r = run_random(b, seed, 8, /*enq_bias=*/30);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzz, WideThreadFan) {
  baton b(8);
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    auto r = run_random(b, seed, 4, /*enq_bias=*/50);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzz, SmallRunsCrossCheckedExactly) {
  // Tiny programs: the exact checker is feasible and strictly stronger than
  // the FIFO checker; agreement on 400 seeds ties the two together.
  baton b(3);
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    std::vector<op_event> h;
    auto r = run_random(b, seed, 2, /*enq_bias=*/50, &h);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
    ASSERT_LE(h.size(), 20u);
    ASSERT_TRUE(lin_checker::is_linearizable(h))
        << "exact checker rejected seed " << seed << ", schedule \""
        << b.schedule() << "\"";
  }
}

// ------------------------- freed reclamation (same programs, same checks)

TEST(RandomScheduleFuzzFreeing, ManySeedsMediumPrograms) {
  baton b(4);
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    auto r = run_random<freeing_base_queue>(b, seed, 6, /*enq_bias=*/60);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzzFreeing, DequeueHeavyHitsEmptyPaths) {
  baton b(3);
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    auto r = run_random<freeing_base_queue>(b, seed, 8, /*enq_bias=*/30);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzzFreeing, FastPathManySeeds) {
  baton b(4);
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    auto r = run_random<freeing_fps_queue>(b, seed, 6, /*enq_bias=*/50);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzzFreeing, SmallRunsCrossCheckedExactly) {
  baton b(3);
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::vector<op_event> h;
    auto r = run_random<freeing_fps_queue>(b, seed, 2, /*enq_bias=*/50, &h);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
    ASSERT_TRUE(lin_checker::is_linearizable(h))
        << "exact checker rejected seed " << seed << ", schedule \""
        << b.schedule() << "\"";
  }
}

}  // namespace
}  // namespace kpq
