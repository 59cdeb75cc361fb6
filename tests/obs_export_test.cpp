// The JSON output path, json_writer: its exact output (escaping,
// non-finite values written as 0, %.17g), and — the reason this suite runs
// under TSan in CI — a scraper reading a counter surface while worker
// threads mutate it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/wf_queue_fps.hpp"
#include "obs/export.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq::obs {
namespace {

TEST(ObsScrape, ConcurrentSnapshotVersusWorkerMutation) {
  // A scraper thread reads aggregate_path_counters() while workers hammer a
  // fast-path queue. Those cells are owner-written with relaxed atomic
  // stores (wf_queue's plain wf_counters fields are NOT scraped), so each
  // cell only grows and a later scrape never sees fewer ops.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kRounds = 3000;
  wf_queue_fps<std::uint64_t> q(kThreads);

  std::atomic<bool> joined{false};
  bool consistent = true;
  fps_path_stats last;
  std::thread scraper([&] {
    // Read the flag before scraping, so the final pass starts after the
    // workers joined.
    for (bool stop = false; !stop;) {
      stop = joined.load(std::memory_order_acquire);
      const fps_path_stats now = q.aggregate_path_counters();
      const double rate = now.slow_rate();
      consistent &= now.ops() >= last.ops() && std::isfinite(rate) &&
                    rate >= 0.0 && rate <= 1.0;
      last = now;
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

  EXPECT_TRUE(consistent);
  // The final scrape (taken after the workers joined) sees every op.
  const std::uint64_t ops = q.aggregate_path_counters().ops();
  EXPECT_EQ(ops, 2 * kThreads * kRounds);
  EXPECT_EQ(last.ops(), ops);
}

// ------------------------------------------------------------- exposition

/// A flat {"name": value, ...} object of the given metrics.
std::string flat_json(
    const std::vector<std::pair<std::string, double>>& metrics) {
  json_writer w;
  w.begin_object();
  for (const auto& [name, v] : metrics) w.key(name).value(v);
  w.end_object();
  return std::move(w).take();
}

TEST(ObsExport, JsonRoundTripIsExact) {
  const std::vector<std::pair<std::string, double>> metrics = {
      {"a.count", 12345.0},
      {"a.rate", 0.14285714285714285},
      {"b.big", 9.007199254740992e18},
      {"b.neg", -17.0}};
  EXPECT_EQ(flat_json(metrics),
            "{\"a.count\":12345,\"a.rate\":0.14285714285714285,"
            "\"b.big\":9.007199254740992e+18,\"b.neg\":-17}");
  // %.17g: any reader gets the exact double back.
  for (const auto& [name, v] : metrics) {
    EXPECT_EQ(std::strtod(format_number(v).c_str(), nullptr), v) << name;
  }
}

TEST(ObsExport, JsonSanitizesNonFiniteToZero) {
  EXPECT_EQ(flat_json({{"bad.a", std::nan("")},
                       {"bad.b", HUGE_VAL},
                       {"bad.c", -HUGE_VAL}}),
            "{\"bad.a\":0,\"bad.b\":0,\"bad.c\":0}");
}

TEST(ObsExport, JsonEscapesKeys) {
  EXPECT_EQ(flat_json({{"weird\"key\\name", 1.0},
                       {"line\nbreak\ttab", 2.0}}),
            "{\"weird\\\"key\\\\name\":1,\"line\\nbreak\\ttab\":2}");
}

TEST(ObsExport, ControlCharKeyRoundTripsThroughJson) {
  // json_escape emits \u00XX for the control chars without a short escape.
  EXPECT_EQ(flat_json({{std::string("bell\x07key"), 9.0}}),
            "{\"bell\\u0007key\":9}");
}

TEST(ObsExport, JsonPassesMultibyteKeysThrough) {
  // UTF-8 bytes are not control characters: they reach the document
  // unescaped, so a multibyte key stays valid JSON byte for byte.
  EXPECT_EQ(flat_json({{"caf\xc3\xa9.\xe2\x82\xac", 1.0}}),  // "café.€"
            "{\"caf\xc3\xa9.\xe2\x82\xac\":1}");
}

TEST(ObsExport, IntegralValuesPrintWithoutFraction) {
  EXPECT_EQ(flat_json({{"n", 3.0}}), "{\"n\":3}");
}

TEST(ObsExport, JsonWriterKeepsKeysInCallOrder) {
  // A document of several sources is one run of key/value calls per
  // source; the writer lists them in call order, each under its prefix.
  json_writer w;
  w.begin_object();
  w.key("queue.enq_ops").value(std::uint64_t{5});
  w.key("queue.deq_ops").value(std::uint64_t{3});
  w.key("mem.live_bytes").value(std::int64_t{0});
  w.key("custom.answer").value(42.0);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"queue.enq_ops\":5,\"queue.deq_ops\":3,\"mem.live_bytes\":0,"
            "\"custom.answer\":42}");
}

TEST(ObsExport, IntegerValuesPrintExactly) {
  // The integer overloads never pass through a double, so counters past
  // 2^53 keep every digit.
  json_writer w;
  w.begin_array();
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::uint64_t{(1ull << 53) + 1});
  w.value(-3);
  w.end_array();
  EXPECT_EQ(w.str(),
            "[18446744073709551615,-9223372036854775808,9007199254740993,"
            "-3]");
}

TEST(ObsExport, StringValuesAreEscaped) {
  json_writer w;
  w.begin_object();
  w.key("title").value("say \"hi\"\\\n");
  w.key("bell").value(std::string("a\x07"));
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"title\":\"say \\\"hi\\\"\\\\\\n\",\"bell\":\"a\\u0007\"}");
}

TEST(ObsExport, EmptyContainersTakeNoCommas) {
  json_writer w;
  w.begin_object();
  w.key("a").begin_object().end_object();
  w.key("b").begin_array().end_array();
  w.key("c").begin_array();
  w.begin_object().end_object();
  w.begin_object().end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":{},\"b\":[],\"c\":[{},{}]}");
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
