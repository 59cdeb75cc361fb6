// Metrics registry and exposition: structural append_metrics sources,
// JSON round-trip (emit, reparse, compare), the never-NaN guarantee for
// counters that never fired, and — the reason this suite runs under TSan in
// CI — snapshots racing worker threads that mutate the registered (atomic)
// counter surfaces.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
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

TEST(ObsRegistry, RegistryCollectsRegisteredSourcesInOrder) {
  wf_counters c;
  c.enq_ops = 5;
  mem_counters mc;
  registry reg;
  reg.add("queue", c);
  reg.add("mem", mc);
  reg.add_source("custom", [](metrics_snapshot& out) {
    append_value(out, "custom.answer", 42.0);
  });
  EXPECT_EQ(reg.source_count(), 3u);
  const metrics_snapshot snap = reg.snapshot();
  const auto m = as_map(snap);
  EXPECT_EQ(m.at("queue.enq_ops"), 5.0);
  EXPECT_EQ(m.at("mem.live_bytes"), 0.0);
  EXPECT_EQ(m.at("custom.answer"), 42.0);
  // Registration order is preserved in the flat document.
  EXPECT_EQ(snap.front().name, "queue.enq_ops");
  EXPECT_EQ(snap.back().name, "custom.answer");
}

TEST(ObsRegistry, ConcurrentSnapshotVersusWorkerMutation) {
  // A scraper thread snapshots while workers hammer a fast-path queue whose
  // registered surface, the path_counters() cells, is owner-written with
  // relaxed atomic stores (wf_queue's plain wf_counters fields are NOT
  // registered).
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kRounds = 3000;
  wf_queue_fps<std::uint64_t> q(kThreads);

  registry reg;
  reg.add_source("q.path", [&](metrics_snapshot& out) {
    append_metrics(out, "q.path", q.aggregate_path_counters());
  });

  std::atomic<bool> joined{false};
  bool all_finite = true;
  metrics_snapshot last;
  std::thread scraper([&] {
    // Read the flag before snapshotting, so the final pass starts after
    // the workers joined.
    for (bool stop = false; !stop;) {
      stop = joined.load(std::memory_order_acquire);
      last = reg.snapshot();
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
  const std::string json = to_json(snap);
  const auto parsed = parse_flat_json(json);
  ASSERT_EQ(parsed.size(), snap.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].first, snap[i].name);
    EXPECT_DOUBLE_EQ(parsed[i].second, snap[i].value) << snap[i].name;
  }
}

TEST(ObsExport, JsonSanitizesNonFiniteToZero) {
  metrics_snapshot snap;
  snap.push_back({"bad.a", std::nan("")});            // bypass append_value
  snap.push_back({"bad.b", HUGE_VAL});
  const std::string json = to_json(snap);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  const auto parsed = parse_flat_json(json);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].second, 0.0);
  EXPECT_EQ(parsed[1].second, 0.0);
}

TEST(ObsExport, JsonEscapesKeys) {
  metrics_snapshot snap;
  append_value(snap, "weird\"key\\name", 1.0);
  const std::string json = to_json(snap);
  const auto parsed = parse_flat_json(json);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].first, "weird\"key\\name");
}

TEST(ObsExport, ParseFlatJsonUnescapesKeys) {
  // Regression: the parser used to keep escape sequences raw ("a\"b" parsed
  // to the three characters a \ " b), breaking json_escape -> parse
  // round-trips for any key with a quote, backslash or control char.
  const auto parsed = parse_flat_json(
      "{\"a\\\"b\":1,\"c\\\\d\":2,\"e\\nf\":3,\"g\\u0041h\":4,"
      "\"tab\\there\":5}");
  ASSERT_EQ(parsed.size(), 5u);
  EXPECT_EQ(parsed[0].first, "a\"b");
  EXPECT_EQ(parsed[1].first, "c\\d");
  EXPECT_EQ(parsed[2].first, "e\nf");
  EXPECT_EQ(parsed[3].first, "gAh");  // \u0041 == 'A'
  EXPECT_EQ(parsed[4].first, "tab\there");
}

TEST(ObsExport, ControlCharKeyRoundTripsThroughJson) {
  // json_escape emits \u00XX for control chars; the parser must decode it.
  metrics_snapshot snap;
  append_value(snap, std::string("bell\x07key"), 9.0);
  const auto parsed = parse_flat_json(to_json(snap));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].first, "bell\x07key");
  EXPECT_EQ(parsed[0].second, 9.0);
}

TEST(ObsExport, ParseFlatJsonUnescapesMultibyteCodePoints) {
  // \u00e9 (é, 2-byte UTF-8) and \u20ac (€, 3-byte UTF-8).
  const auto parsed = parse_flat_json("{\"caf\\u00e9\":1,\"\\u20ac\":2}");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].first, "caf\xc3\xa9");
  EXPECT_EQ(parsed[1].first, "\xe2\x82\xac");
}

TEST(ObsExport, IntegralValuesPrintWithoutFraction) {
  metrics_snapshot snap;
  append_value(snap, "n", 3.0);
  EXPECT_EQ(to_json(snap), "{\"n\":3}");
}

TEST(ObsExport, ParseFlatJsonToleratesWhitespace) {
  const auto parsed =
      parse_flat_json("  { \"x\" : 1.5 ,\n \"y\" : -2 }  ");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].first, "x");
  EXPECT_EQ(parsed[0].second, 1.5);
  EXPECT_EQ(parsed[1].second, -2.0);
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
