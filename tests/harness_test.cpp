// Unit tests for the benchmark harness substrate: statistics, workload
// determinism, run orchestration, memory counters, tables, CLI parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "harness/affinity.hpp"
#include "harness/cli.hpp"
#include "harness/mem_tracker.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/timing.hpp"
#include "harness/workload.hpp"

namespace kpq {
namespace {

// -------------------------------------------------------------------- stats

TEST(RunningStats, MeanAndStddevMatchClosedForm) {
  running_stats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  auto s = rs.finish();
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(RunningStats, SingleSampleHasZeroStddev) {
  running_stats rs;
  rs.add(3.5);
  auto s = rs.finish();
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(RunningStats, EmptyFinishesAllZero) {
  // A stat that never fired exports 0, not the +-inf of its min/max seeds.
  const summary s = running_stats{}.finish();
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(Percentile, NearestRankBehaviour) {
  std::vector<std::uint64_t> xs;
  for (std::uint64_t i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_EQ(nearest_rank(xs, 0.0), 1u);
  EXPECT_EQ(nearest_rank(xs, 1.0), 100u);
  EXPECT_EQ(nearest_rank(xs, 0.5), 50u);
  EXPECT_EQ(nearest_rank(xs, 0.99), 99u);
  // Rank ceil(q*n): landing exactly on rank 90 does not overshoot to 91.
  EXPECT_EQ(nearest_rank(xs, 0.90), 90u);
  EXPECT_EQ(nearest_rank(xs, 0.901), 91u);
}

TEST(Percentile, MedianOfOneToTenIsFive) {
  // Rank ceil(0.5*10) = 5; round(q*(n-1)) would index one rank high, at 6.
  std::vector<std::uint64_t> xs;
  for (std::uint64_t i = 1; i <= 10; ++i) xs.push_back(i);
  EXPECT_EQ(nearest_rank(xs, 0.5), 5u);
  EXPECT_EQ(nearest_rank(xs, 0.1), 1u);
  EXPECT_EQ(nearest_rank(xs, 0.9), 9u);
}

TEST(Percentile, EmptyAndSingleSample) {
  EXPECT_EQ(nearest_rank({}, 0.5), 0u);
  const std::vector<std::uint64_t> one = {42};
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(nearest_rank(one, q), 42u) << "q=" << q;
  }
}

/// `k` copies of each value, in the order given (callers pass them sorted).
std::vector<std::uint64_t> runs_of(
    std::initializer_list<std::pair<std::uint64_t, int>> runs) {
  std::vector<std::uint64_t> xs;
  for (const auto& [v, k] : runs) xs.insert(xs.end(), k, v);
  return xs;
}

TEST(Percentile, TwoClustersAnswerTheirOwnSamples) {
  // 90 fast samples and 10 slow ones: every quantile is one of the two
  // recorded values, not an upper bound on a bucket holding it.
  const auto xs = runs_of({{10, 90}, {5000, 10}});
  EXPECT_EQ(nearest_rank(xs, 0.5), 10u);
  EXPECT_EQ(nearest_rank(xs, 0.89), 10u);
  EXPECT_EQ(nearest_rank(xs, 0.95), 5000u);
  EXPECT_EQ(nearest_rank(xs, 1.0), 5000u);
}

TEST(Percentile, ExtremeQuantilesHitMinAndMax) {
  const auto xs = runs_of({{3, 5}, {40, 5}, {70000, 5}});
  EXPECT_EQ(nearest_rank(xs, 0.0), 3u);      // p0 = smallest sample
  EXPECT_EQ(nearest_rank(xs, 1.0), 70000u);  // p100 = largest
  EXPECT_EQ(nearest_rank(xs, 0.5), 40u);
}

TEST(Percentile, ExactRankBoundaryIsNotOvershot) {
  // p90 of 90 small + 10 large samples is covered by the 90 small ones;
  // the first quantile past rank 90 is the first large sample.
  const auto xs = runs_of({{10, 90}, {5000, 10}});
  EXPECT_EQ(nearest_rank(xs, 0.90), 10u);
  EXPECT_EQ(nearest_rank(xs, 0.901), 5000u);
}

TEST(Percentile, OutOfRangeQuantilesClampToTheEnds) {
  const std::vector<std::uint64_t> xs = {2, 4, 8};
  EXPECT_EQ(nearest_rank(xs, -0.5), 2u);
  EXPECT_EQ(nearest_rank(xs, 1.5), 8u);
}

TEST(Percentile, AnswerIsASampleAndNeverFallsAsQRises) {
  std::vector<std::uint64_t> xs;
  splitmix64 rng(7);
  for (int i = 0; i < 37; ++i) xs.push_back(rng.next() % 1000);
  std::sort(xs.begin(), xs.end());
  std::uint64_t prev = 0;
  for (int step = 0; step <= 1000; ++step) {
    const double q = step / 1000.0;
    const std::uint64_t v = nearest_rank(xs, q);
    EXPECT_TRUE(std::binary_search(xs.begin(), xs.end(), v)) << "q=" << q;
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

// ----------------------------------------------------------------- workload

TEST(Workload, ThreadStreamsAreDeterministic) {
  fast_rng a = thread_stream(42, 3);
  fast_rng b = thread_stream(42, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Workload, ThreadStreamsDiffer) {
  fast_rng a = thread_stream(42, 0);
  fast_rng b = thread_stream(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Workload, BernoulliIsRoughlyFair) {
  fast_rng rng(7);
  int heads = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (rng.coin()) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kN, 0.5, 0.02);
}

TEST(Workload, ValueEncodingRoundTrips) {
  for (std::uint32_t tid : {0u, 1u, 17u, 255u}) {
    for (std::uint64_t seq : {0ull, 1ull, 999999ull, (1ull << 39)}) {
      const std::uint64_t v = encode_value(tid, seq);
      EXPECT_EQ(value_tid(v), tid);
      EXPECT_EQ(value_seq(v), seq);
    }
  }
}

// ------------------------------------------------------------------- runner

TEST(Runner, ExecutesBodyOncePerThreadPerRep) {
  std::atomic<int> calls{0};
  run_config cfg;
  cfg.threads = 3;
  cfg.reps = 4;
  auto s = run_trials(cfg, [&](std::uint32_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 12);
  EXPECT_EQ(s.n, 4u);
  EXPECT_GT(s.mean, 0.0);
}

TEST(Runner, SetupRunsBeforeEachRep) {
  std::vector<int> reps_seen;
  run_config cfg;
  cfg.threads = 1;
  cfg.reps = 3;
  run_trials(
      cfg, [&](std::uint32_t rep) { reps_seen.push_back(static_cast<int>(rep)); },
      [&](std::uint32_t) {});
  EXPECT_EQ(reps_seen, (std::vector<int>{0, 1, 2}));
}

// ------------------------------------------------------------------- timing

TEST(Timing, StopwatchMeasuresForwardTime) {
  stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(sw.elapsed_ns(), 1000000u);
  EXPECT_GE(sw.elapsed_s(), 0.001);
  sw.reset();
  EXPECT_LT(sw.elapsed_s(), 1.0);
}

// -------------------------------------------------------------- mem_tracker

TEST(MemCounters, TracksAllocAndFree) {
  mem_counters mc;
  mc.on_alloc(100);
  mc.on_alloc(50);
  EXPECT_EQ(mc.live_bytes(), 150);
  EXPECT_EQ(mc.live_objects(), 2);
  EXPECT_EQ(mc.total_allocs(), 2u);
  mc.on_free(100);
  EXPECT_EQ(mc.live_bytes(), 50);
  EXPECT_EQ(mc.live_objects(), 1);
  mc.reset();
  EXPECT_EQ(mc.live_bytes(), 0);
}

// -------------------------------------------------------------------- table

TEST(Table, PrintsAlignedColumnsAndCsv) {
  table t({"threads", "LF", "WF"});
  t.add_row({"1", "0.5", "1.2"});
  t.add_row({"16", "3.25", "4.0"});

  char buf[4096];
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  ASSERT_NE(mem, nullptr);
  t.print(mem);
  std::fclose(mem);
  std::string out(buf);
  EXPECT_NE(out.find("threads"), std::string::npos);
  EXPECT_NE(out.find("3.25"), std::string::npos);

  std::FILE* mem2 = fmemopen(buf, sizeof(buf), "w");
  t.print_csv(mem2);
  std::fclose(mem2);
  std::string csv(buf);
  EXPECT_NE(csv.find("threads,LF,WF"), std::string::npos);
  EXPECT_NE(csv.find("16,3.25,4.0"), std::string::npos);
}

TEST(Table, FmtFormatsWithPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

// ---------------------------------------------------------------------- cli

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",    "--iters=500", "--threads", "8",
                        "--pin",   "--name=foo"};
  cli c(6, const_cast<char**>(argv));
  EXPECT_EQ(c.get_u64("iters", 1), 500u);
  EXPECT_EQ(c.get_u64("threads", 1), 8u);
  EXPECT_TRUE(c.get_flag("pin"));
  EXPECT_FALSE(c.get_flag("absent"));
  EXPECT_EQ(c.get_str("name", "bar"), "foo");
  EXPECT_EQ(c.get_u64("missing", 99), 99u);
}

TEST(Cli, ReportsUnknownFlags) {
  const char* argv[] = {"prog", "--iters=1", "--typo=2"};
  cli c(3, const_cast<char**>(argv));
  auto unknown = c.unknown({"iters", "threads"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

// ----------------------------------------------------------------- affinity

TEST(Affinity, OnlineCpusIsPositive) { EXPECT_GE(online_cpus(), 1u); }

TEST(Affinity, PinningIsBestEffort) {
  // Must not crash; success depends on the host.
  (void)pin_to_cpu(0);
  SUCCEED();
}

}  // namespace
}  // namespace kpq
