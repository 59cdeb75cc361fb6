// Telemetry pump: bounded snapshot ring, JSONL/Prometheus side-channels,
// and — the reason this suite runs under TSan in CI — concurrent scrapes
// against worker threads mutating the registered (atomic) counter surfaces.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/wf_queue_fps.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq::obs {
namespace {

std::string tmp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

TEST(ObsTelemetry, ScrapeOnceFillsRingAndFiles) {
  registry reg;
  std::atomic<std::uint64_t> ticks{41};
  reg.add_source("pump.ticks", [&](metrics_snapshot& out) {
    append_value(out, "pump.ticks",
                 static_cast<double>(ticks.load(std::memory_order_relaxed)));
  });

  telemetry_options opts;
  opts.jsonl_path = tmp_path("kpq_telemetry_test.jsonl");
  opts.prom_path = tmp_path("kpq_telemetry_test.prom");
  std::remove(opts.jsonl_path.c_str());
  std::remove(opts.prom_path.c_str());

  telemetry_pump pump(reg, opts);
  pump.scrape_once();
  ticks.store(42);
  pump.scrape_once();

  ASSERT_EQ(pump.scrapes(), 2u);
  const auto recent = pump.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_LE(recent[0].ts_ns, recent[1].ts_ns);  // oldest first
  ASSERT_EQ(recent[1].snap.size(), 1u);
  EXPECT_EQ(recent[1].snap[0].value, 42.0);

  // JSONL: one parseable flat object per scrape, ts_ns leading.
  std::ifstream jf(opts.jsonl_path);
  ASSERT_TRUE(jf.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jf, line)) {
    ++lines;
    const auto kv = parse_flat_json(line);
    ASSERT_EQ(kv.size(), 2u) << line;
    EXPECT_EQ(kv[0].first, "ts_ns");
    EXPECT_EQ(kv[1].first, "pump.ticks");
  }
  EXPECT_EQ(lines, 2u);

  // Prometheus textfile: whole-file rewrite with the sanitized name.
  std::ifstream pf(opts.prom_path);
  ASSERT_TRUE(pf.good());
  std::string prom((std::istreambuf_iterator<char>(pf)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(prom.find("pump_ticks 42"), std::string::npos) << prom;

  std::remove(opts.jsonl_path.c_str());
  std::remove(opts.prom_path.c_str());
}

TEST(ObsTelemetry, RingIsBounded) {
  registry reg;
  telemetry_options opts;
  opts.ring_capacity = 4;
  telemetry_pump pump(reg, opts);
  for (int i = 0; i < 10; ++i) pump.scrape_once();
  EXPECT_EQ(pump.scrapes(), 10u);
  EXPECT_EQ(pump.recent().size(), 4u);
}

TEST(ObsTelemetry, BackgroundPumpScrapesPeriodically) {
  registry reg;
  telemetry_options opts;
  opts.interval_ms = 5;
  telemetry_pump pump(reg, opts);
  pump.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  pump.stop();
  // ~12 intervals elapsed plus the final scrape on stop; be generous for
  // loaded CI machines — at least the final one must have landed.
  EXPECT_GE(pump.scrapes(), 1u);
  pump.stop();  // idempotent
  EXPECT_FALSE(pump.recent().empty());
}

TEST(ObsTelemetry, ConcurrentScrapeVersusWorkerMutation) {
  // The TSan contract test: the pump scrapes from its own thread while
  // workers hammer a fast-path queue whose registered surface, the
  // path_counters() cells, is owner-written with relaxed atomic stores
  // (wf_queue's plain wf_counters fields are NOT registered).
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kRounds = 3000;
  wf_queue_fps<std::uint64_t> q(kThreads);

  registry reg;
  reg.add_source("q.path", [&](metrics_snapshot& out) {
    append_metrics(out, "q.path", q.aggregate_path_counters());
  });

  telemetry_options opts;
  opts.interval_ms = 1;  // scrape as hot as the pump allows
  telemetry_pump pump(reg, opts);
  spin_barrier barrier(kThreads);
  pump.start();

  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        q.enqueue(i, t);
        q.dequeue(t);
      }
    });
  }
  for (auto& w : workers) w.join();
  pump.stop();

  ASSERT_GE(pump.scrapes(), 1u);
  for (const auto& s : pump.recent()) {
    for (const metric& m : s.snap) {
      EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    }
  }
  // The final scrape (taken after the workers joined) sees every operation.
  const auto recent = pump.recent();
  double scraped_ops = 0;
  for (const metric& m : recent.back().snap) {
    if (m.name == "q.path.fast_enqs" || m.name == "q.path.slow_enqs" ||
        m.name == "q.path.fast_deqs" || m.name == "q.path.slow_deqs") {
      scraped_ops += m.value;
    }
  }
  const std::uint64_t ops = q.aggregate_path_counters().ops();
  EXPECT_EQ(ops, 2 * kThreads * kRounds);
  EXPECT_EQ(scraped_ops, static_cast<double>(ops));
}

}  // namespace
}  // namespace kpq::obs
