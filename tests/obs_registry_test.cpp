// Metrics registry and exposition: structural append_metrics sources,
// to_json's exact output (escaping, non-finite clamping, %.17g), the
// never-NaN guarantee for counters that never fired, and — the reason this
// suite runs under TSan in CI — snapshots racing worker threads that mutate
// a snapshotted (atomic) counter surface.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "harness/mem_tracker.hpp"
#include "harness/stats.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "scale/scale_counters.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq::obs {
namespace {

std::map<std::string, double> as_map(const metrics_snapshot& snap) {
  std::map<std::string, double> m;
  for (const metric& x : snap) m[x.name] = x.value;
  return m;
}

TEST(ObsRegistry, WfCountersSource) {
  wf_counters c;
  c.enq_ops = 10;
  c.deq_ops = 30;
  c.helped_enq_completions = 3;
  c.helped_deq_completions = 1;
  metrics_snapshot snap;
  append_metrics(snap, "q", c);
  const auto m = as_map(snap);
  EXPECT_EQ(m.at("q.enq_ops"), 10.0);
  EXPECT_EQ(m.at("q.deq_ops"), 30.0);
  EXPECT_DOUBLE_EQ(m.at("q.helped_per_op"), 0.1);
}

TEST(ObsRegistry, WfCountersNeverFiredExportsZeroNotNaN) {
  metrics_snapshot snap;
  append_metrics(snap, "idle", wf_counters{});
  for (const metric& m : snap) {
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
  }
  EXPECT_EQ(as_map(snap).at("idle.helped_per_op"), 0.0);
}

TEST(ObsRegistry, ShardStatsSource) {
  shard_stats s;
  s.enqueued = 100;
  s.dequeued = 80;
  s.stolen = 20;
  metrics_snapshot snap;
  append_metrics(snap, "shard0", s);
  const auto m = as_map(snap);
  EXPECT_EQ(m.at("shard0.depth"), 20.0);
  EXPECT_DOUBLE_EQ(m.at("shard0.steal_rate"), 0.25);
}

TEST(ObsRegistry, RegistryExportsFpsPathSplit) {
  wf_queue_fps<std::uint64_t> q(1);
  for (std::uint64_t i = 0; i < 10; ++i) {
    q.enqueue(i, 0);
    (void)q.dequeue(0);
  }
  const fps_path_stats ps = q.aggregate_path_counters();
  EXPECT_EQ(ps.ops(), 20u);
  metrics_snapshot out;
  append_metrics(out, "fps", ps);
  const auto m = as_map(out);
  ASSERT_EQ(m.count("fps.slow_rate"), 1u);
  EXPECT_GE(m.at("fps.slow_rate"), 0.0);
  EXPECT_LE(m.at("fps.slow_rate"), 1.0);
}

TEST(ObsRegistry, MemAndReclaimerSources) {
  mem_counters mc;
  mc.on_alloc(64);
  mc.on_alloc(32);
  mc.on_free(32);
  hp_domain dom(2, 3);
  metrics_snapshot snap;
  append_metrics(snap, "mem", mc);
  append_metrics(snap, "hp", dom);
  const auto m = as_map(snap);
  EXPECT_EQ(m.at("mem.live_bytes"), 64.0);
  EXPECT_EQ(m.at("mem.live_objects"), 1.0);
  EXPECT_EQ(m.at("mem.total_allocs"), 2.0);
  EXPECT_EQ(m.at("hp.retired"), 0.0);
  EXPECT_EQ(m.at("hp.freed"), 0.0);
  EXPECT_EQ(m.at("hp.pending"), 0.0);
}

TEST(ObsRegistry, EventLoopStatsSource) {
  // Mirror of async::loop_stats (structural concept — no async include).
  struct fake_loop_stats {
    std::uint64_t resumes = 10;
    std::uint64_t timer_fires = 4;
    std::uint64_t idle_parks = 2;
    std::uint64_t spawned = 5;
    std::uint64_t completed = 5;
    std::uint64_t ready_lag_ns_total = 1000;
    std::uint64_t ready_lag_ns_max = 300;
    std::uint64_t timer_slack_ns_total = 800;
    std::uint64_t timer_slack_ns_max = 500;
    std::uint64_t max_ready_depth = 7;
    double mean_ready_lag_ns() const { return 100.0; }
    double mean_timer_slack_ns() const { return 200.0; }
  };
  static_assert(event_loop_stats_like<fake_loop_stats>);

  metrics_snapshot out;
  append_metrics(out, "loop", fake_loop_stats{});
  ASSERT_EQ(out.size(), 10u);
  bool saw_lag = false, saw_depth = false;
  for (const metric& m : out) {
    if (m.name == "loop.ready_lag_ns_mean") {
      saw_lag = true;
      EXPECT_EQ(m.value, 100.0);
    }
    if (m.name == "loop.max_ready_depth") {
      saw_depth = true;
      EXPECT_EQ(m.value, 7.0);
    }
  }
  EXPECT_TRUE(saw_lag);
  EXPECT_TRUE(saw_depth);
}

TEST(ObsRegistry, SummarySourceGuardsEmpty) {
  running_stats rs;  // never fired
  metrics_snapshot snap;
  append_metrics(snap, "empty", rs.finish());
  const auto m = as_map(snap);
  EXPECT_EQ(m.at("empty.n"), 0.0);
  EXPECT_EQ(m.at("empty.mean"), 0.0);
  EXPECT_EQ(m.at("empty.min"), 0.0);   // not +inf
  EXPECT_EQ(m.at("empty.max"), 0.0);   // not -inf
  EXPECT_EQ(m.at("empty.stddev"), 0.0);
}

TEST(ObsRegistry, AppendMetricsKeepsSourcesInCallOrder) {
  // A snapshot of several sources is one append_metrics call per source;
  // the flat document lists them in call order, each under its prefix.
  wf_counters c;
  c.enq_ops = 5;
  mem_counters mc;
  metrics_snapshot snap;
  append_metrics(snap, "queue", c);
  append_metrics(snap, "mem", mc);
  append_value(snap, "custom.answer", 42.0);
  const auto m = as_map(snap);
  EXPECT_EQ(m.at("queue.enq_ops"), 5.0);
  EXPECT_EQ(m.at("mem.live_bytes"), 0.0);
  EXPECT_EQ(m.at("custom.answer"), 42.0);
  EXPECT_EQ(snap.front().name, "queue.enq_ops");
  EXPECT_EQ(snap.back().name, "custom.answer");
  std::size_t i = 0;
  while (i < snap.size() && snap[i].name.rfind("queue.", 0) == 0) ++i;
  while (i < snap.size() && snap[i].name.rfind("mem.", 0) == 0) ++i;
  EXPECT_EQ(i, snap.size() - 1) << "sources interleaved at " << snap[i].name;
}

TEST(ObsRegistry, ConcurrentSnapshotVersusWorkerMutation) {
  // A scraper thread snapshots while workers hammer a fast-path queue whose
  // snapshotted surface, the path_counters() cells, is owner-written with
  // relaxed atomic stores (wf_queue's plain wf_counters fields are NOT
  // snapshotted).
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kRounds = 3000;
  wf_queue_fps<std::uint64_t> q(kThreads);

  std::atomic<bool> joined{false};
  bool all_finite = true;
  metrics_snapshot last;
  std::thread scraper([&] {
    // Read the flag before snapshotting, so the final pass starts after
    // the workers joined.
    for (bool stop = false; !stop;) {
      stop = joined.load(std::memory_order_acquire);
      last.clear();
      append_metrics(last, "q.path", q.aggregate_path_counters());
      for (const metric& m : last) all_finite &= std::isfinite(m.value);
    }
  });

  spin_barrier barrier(kThreads);
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
  joined.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_TRUE(all_finite);
  // The final snapshot (taken after the workers joined) sees every op.
  double scraped_ops = 0;
  for (const metric& m : last) {
    if (m.name == "q.path.fast_enqs" || m.name == "q.path.slow_enqs" ||
        m.name == "q.path.fast_deqs" || m.name == "q.path.slow_deqs") {
      scraped_ops += m.value;
    }
  }
  const std::uint64_t ops = q.aggregate_path_counters().ops();
  EXPECT_EQ(ops, 2 * kThreads * kRounds);
  EXPECT_EQ(scraped_ops, static_cast<double>(ops));
}

// ------------------------------------------------------------- exposition

TEST(ObsExport, JsonRoundTripIsExact) {
  metrics_snapshot snap;
  append_value(snap, "a.count", 12345.0);
  append_value(snap, "a.rate", 0.14285714285714285);
  append_value(snap, "b.big", 9.007199254740992e18);
  append_value(snap, "b.neg", -17.0);
  EXPECT_EQ(to_json(snap),
            "{\"a.count\":12345,\"a.rate\":0.14285714285714285,"
            "\"b.big\":9.007199254740992e+18,\"b.neg\":-17}");
  // %.17g: any reader gets the exact double back.
  for (const metric& m : snap) {
    EXPECT_EQ(std::strtod(format_number(m.value).c_str(), nullptr), m.value)
        << m.name;
  }
}

TEST(ObsExport, JsonSanitizesNonFiniteToZero) {
  metrics_snapshot snap;
  snap.push_back({"bad.a", std::nan("")});            // bypass append_value
  snap.push_back({"bad.b", HUGE_VAL});
  EXPECT_EQ(to_json(snap), "{\"bad.a\":0,\"bad.b\":0}");
}

TEST(ObsExport, JsonEscapesKeys) {
  metrics_snapshot snap;
  append_value(snap, "weird\"key\\name", 1.0);
  append_value(snap, "line\nbreak\ttab", 2.0);
  EXPECT_EQ(to_json(snap),
            "{\"weird\\\"key\\\\name\":1,\"line\\nbreak\\ttab\":2}");
}

TEST(ObsExport, ControlCharKeyRoundTripsThroughJson) {
  // json_escape emits \u00XX for the control chars without a short escape.
  metrics_snapshot snap;
  append_value(snap, std::string("bell\x07key"), 9.0);
  EXPECT_EQ(to_json(snap), "{\"bell\\u0007key\":9}");
}

TEST(ObsExport, JsonPassesMultibyteKeysThrough) {
  // UTF-8 bytes are not control characters: they reach the document
  // unescaped, so a multibyte key stays valid JSON byte for byte.
  metrics_snapshot snap;
  append_value(snap, "caf\xc3\xa9.\xe2\x82\xac", 1.0);  // "café.€"
  EXPECT_EQ(to_json(snap), "{\"caf\xc3\xa9.\xe2\x82\xac\":1}");
}

TEST(ObsExport, IntegralValuesPrintWithoutFraction) {
  metrics_snapshot snap;
  append_value(snap, "n", 3.0);
  EXPECT_EQ(to_json(snap), "{\"n\":3}");
}

TEST(ObsExport, JsonWriterNestedDocument) {
  json_writer w;
  w.begin_object();
  w.key("name").value("fig");
  w.key("flag").value(true);
  w.key("xs").begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.key("obj").begin_object();
  w.key("pi").value(3.5);
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"fig\",\"flag\":true,\"xs\":[1,2],"
            "\"obj\":{\"pi\":3.5}}");
}

}  // namespace
}  // namespace kpq::obs
