// Trace ring and trace domain: wrap-around exactness, concurrent writers on
// distinct rings, drain-at-quiescence, recorder policies, and the derived
// wait-freedom metrics over both synthetic and real (traced wf_queue)
// event streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/wf_queue.hpp"
#include "obs/trace_ring.hpp"
#include "obs/wf_metrics.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq::obs {
namespace {

TEST(ObsTraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(trace_ring(2).capacity(), 2u);
  EXPECT_EQ(trace_ring(3).capacity(), 4u);
  EXPECT_EQ(trace_ring(1000).capacity(), 1024u);
  EXPECT_EQ(trace_ring(1024).capacity(), 1024u);
  EXPECT_GE(trace_ring(0).capacity(), 2u);  // degenerate sizes still usable
}

TEST(ObsTraceRing, DrainAtQuiescenceIsExact) {
  trace_ring ring(64);
  for (std::uint32_t i = 0; i < 10; ++i) {
    ring.record(trace_kind::enq_publish, /*tid=*/1, /*phase=*/i, /*aux=*/i);
  }
  EXPECT_EQ(ring.written(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);

  std::vector<trace_event> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].phase, static_cast<std::int64_t>(i));
    EXPECT_EQ(out[i].aux, i);
    EXPECT_EQ(out[i].tid, 1u);
    EXPECT_EQ(out[i].kind, trace_kind::enq_publish);
    if (i > 0) {
      EXPECT_GE(out[i].ts, out[i - 1].ts);  // owner order = time order
    }
  }
}

TEST(ObsTraceRing, WrapAroundKeepsNewestAndCountsDropped) {
  trace_ring ring(8);  // capacity exactly 8
  const std::uint64_t total = 8 + 5;
  for (std::uint64_t i = 0; i < total; ++i) {
    ring.record(trace_kind::deq_publish, 0, static_cast<std::int64_t>(i), 0);
  }
  EXPECT_EQ(ring.written(), total);
  EXPECT_EQ(ring.dropped(), 5u);

  std::vector<trace_event> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 8u);
  // Retained suffix: events 5..12, oldest first.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].phase, static_cast<std::int64_t>(5 + i));
  }
}

TEST(ObsTraceRing, ResetForgetsEverything) {
  trace_ring ring(8);
  ring.record(trace_kind::retire, 0, 0, 0);
  ring.reset();
  EXPECT_EQ(ring.written(), 0u);
  std::vector<trace_event> out;
  ring.drain(out);
  EXPECT_TRUE(out.empty());
}

// Stored traces (JSONL exports, flight-recorder dumps) carry the numeric
// kind, so a kind keeps its value for good and a retired value stays unused.
constexpr std::pair<trace_kind, unsigned> kPinnedKinds[] = {
    {trace_kind::enq_publish, 0},  {trace_kind::enq_complete, 1},
    {trace_kind::deq_publish, 2},  {trace_kind::deq_complete, 3},
    {trace_kind::help_start, 4},   {trace_kind::help_finish, 5},
    {trace_kind::help_scan, 6},    {trace_kind::retire, 7},
    {trace_kind::reclaim_scan, 8}, {trace_kind::shard_steal, 9},
    {trace_kind::shard_empty, 10}, {trace_kind::waiter_park, 12},
    {trace_kind::waiter_resume, 13},
};

TEST(ObsTraceKinds, StoredNumericValuesAreStable) {
  for (const auto& [kind, value] : kPinnedKinds) {
    EXPECT_EQ(static_cast<unsigned>(kind), value) << trace_kind_name(kind);
  }
}

TEST(ObsTraceKinds, EveryLiveKindIsNamedAndRetiredElevenIsNot) {
  std::set<std::string> names;
  for (const auto& [kind, value] : kPinnedKinds) {
    const std::string name = trace_kind_name(kind);
    EXPECT_NE(name, "unknown") << "kind " << value;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(kPinnedKinds)) << "names must be unique";
  EXPECT_STREQ(trace_kind_name(static_cast<trace_kind>(11)), "unknown");
  EXPECT_STREQ(trace_kind_name(static_cast<trace_kind>(14)), "unknown");
}

TEST(ObsTraceDomain, ConcurrentWritersOnDistinctRingsLoseNothing) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kEvents = 5000;
  trace_domain domain(kThreads, /*capacity_per_thread=*/8192);

  spin_barrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (std::uint32_t i = 0; i < kEvents; ++i) {
        domain.record(t, trace_kind::enq_publish, i, i);
      }
    });
  }
  for (auto& w : workers) w.join();

  std::uint64_t dropped = 0;
  const auto events = domain.drain_all(&dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kEvents);

  // Per-thread: exactly kEvents events, sequence numbers in order (drain_all
  // sorts by timestamp with a stable sort, so equal-tick events from one
  // ring keep their recording order).
  std::vector<std::uint32_t> next(kThreads, 0);
  std::vector<std::uint64_t> count(kThreads, 0);
  for (const trace_event& e : events) {
    ASSERT_LT(e.tid, kThreads);
    EXPECT_EQ(e.aux, next[e.tid]++);
    ++count[e.tid];
  }
  for (std::uint32_t t = 0; t < kThreads; ++t) EXPECT_EQ(count[t], kEvents);
}

TEST(ObsTraceDomain, DrainAllMergesSortedByTimestamp) {
  trace_domain domain(2, 64);
  domain.record(0, trace_kind::enq_publish, 1, 0);
  domain.record(1, trace_kind::deq_publish, 2, 0);
  domain.record(0, trace_kind::enq_complete, 1, 0);
  const auto events = domain.drain_all();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts, events[i - 1].ts);
  }
}

TEST(ObsTracePolicies, NoTraceIsDisabledAndInert) {
  static_assert(!no_trace::enabled);
  no_trace::record(0, trace_kind::retire, 0, 0);  // links, does nothing
#if defined(KPQ_TRACE)
  static_assert(default_trace::enabled);
#else
  static_assert(!default_trace::enabled);
#endif
}

TEST(ObsTracePolicies, RingTraceRecordsIntoGlobalDomain) {
  static_assert(ring_trace::enabled);
  global_trace().reset();
  ring_trace::record(3, trace_kind::help_start, 7, 1);
  ring_trace::record(3, trace_kind::help_finish, 7, 1);
  const auto events = global_trace().drain_all();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, trace_kind::help_start);
  EXPECT_EQ(events[0].tid, 3u);
  EXPECT_EQ(events[0].phase, 7);
  EXPECT_EQ(events[1].kind, trace_kind::help_finish);
  global_trace().reset();
}

// ------------------------------------------------------- derived metrics

TEST(ObsWfMetrics, AnalyzeSyntheticStream) {
  // Hand-built stream: two ops; op B completes while the frontier has moved
  // 2 phases past it; one helping episode of 100 ticks.
  std::vector<trace_event> ev;
  auto push = [&](std::uint64_t ts, trace_kind k, std::uint32_t tid,
                  std::int64_t phase, std::uint32_t aux) {
    trace_event e;
    e.ts = ts;
    e.kind = k;
    e.tid = tid;
    e.phase = phase;
    e.aux = aux;
    ev.push_back(e);
  };
  push(10, trace_kind::enq_publish, 0, 1, 0);
  push(20, trace_kind::deq_publish, 1, 2, 0);
  push(30, trace_kind::enq_publish, 2, 3, 0);
  push(40, trace_kind::help_start, 1, 1, 0);    // t1 helps t0's phase-1 op
  push(140, trace_kind::help_finish, 1, 1, 0);
  push(150, trace_kind::enq_complete, 0, 1, 0);  // lag = 3 - 1 = 2
  push(160, trace_kind::deq_complete, 1, 2, 1);  // lag = 1, hit
  push(170, trace_kind::retire, 1, 0, 0);

  const wf_trace_report r = analyze_trace(ev);
  EXPECT_EQ(r.enq_ops, 1u);
  EXPECT_EQ(r.deq_ops, 1u);
  EXPECT_EQ(r.empty_deqs, 0u);
  EXPECT_EQ(r.help_episodes, 1u);
  EXPECT_EQ(r.unmatched_helps, 0u);
  EXPECT_EQ(r.retires, 1u);
  EXPECT_EQ(r.max_phase_seen, 3);
  EXPECT_DOUBLE_EQ(r.helped_per_op(), 0.5);
  // 100-tick episode lands in the (64,128] bucket => upper bound 127.
  EXPECT_EQ(r.help_latency.quantile_upper_bound(1.0), 127u);
  // Lags 2 and 1: p100 upper bound covers lag 2 (bucket (1,2], bound 2...
  // log2 bucket of 2 is bucket 2 with upper bound 3).
  EXPECT_GE(r.phase_lag.quantile_upper_bound(1.0), 2u);
  EXPECT_EQ(r.phase_lag.total(), 2u);
}

TEST(ObsWfMetrics, UnmatchedHelpStartsAreCounted) {
  std::vector<trace_event> ev(1);
  ev[0].kind = trace_kind::help_start;
  ev[0].tid = 0;
  ev[0].ts = 5;
  const wf_trace_report r = analyze_trace(ev);
  EXPECT_EQ(r.help_episodes, 0u);
  EXPECT_EQ(r.unmatched_helps, 1u);
}

TEST(ObsWfMetrics, EmptyTraceYieldsAllZeroFiniteReport) {
  const wf_trace_report r = analyze_trace({});
  EXPECT_EQ(r.ops(), 0u);
  EXPECT_EQ(r.helped_per_op(), 0.0);  // n==0 guard: no NaN
  EXPECT_EQ(r.help_latency.quantile_upper_bound(0.99), 0u);
}

// ---------------------------------------------- traced queue, end to end

TEST(ObsTracedQueue, SingleThreadedCountsAreExact) {
  using Q = wf_queue<std::uint64_t, help_all, scan_max_phase, hp_domain,
                     wf_options_traced>;
  global_trace().reset();
  constexpr std::uint64_t kOps = 200;
  {
    Q q(2);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      q.enqueue(i, 0);
      ASSERT_EQ(q.dequeue(0), std::optional<std::uint64_t>(i));
    }
    EXPECT_FALSE(q.dequeue(0).has_value());
  }
  std::uint64_t dropped = 0;
  const auto events = global_trace().drain_all(&dropped);
  const wf_trace_report r = analyze_trace(events, dropped);
  EXPECT_EQ(r.enq_ops, kOps);
  EXPECT_EQ(r.deq_ops, kOps + 1);
  EXPECT_EQ(r.empty_deqs, 1u);
  EXPECT_EQ(r.help_episodes, 0u);  // nobody to help single-threaded
  EXPECT_EQ(r.dropped_events, 0u);
  // Every dequeued node is eventually retired by the head swing.
  EXPECT_EQ(r.retires, kOps);
  global_trace().reset();
}

TEST(ObsTracedQueue, ConcurrentRunProducesConsistentTrace) {
  using Q = wf_queue<std::uint64_t, help_one, fetch_add_phase, hp_domain,
                     wf_options_traced>;
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kIters = 2000;
  global_trace().reset();
  {
    Q q(kThreads);
    spin_barrier barrier(kThreads);
    std::vector<std::thread> workers;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        barrier.arrive_and_wait();
        for (std::uint64_t i = 0; i < kIters; ++i) {
          q.enqueue(i, t);
          (void)q.dequeue(t);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  std::uint64_t dropped = 0;
  const auto events = global_trace().drain_all(&dropped);
  const wf_trace_report r = analyze_trace(events, dropped, kThreads);
  if (dropped == 0) {
    EXPECT_EQ(r.enq_ops, kThreads * kIters);
    EXPECT_EQ(r.deq_ops, kThreads * kIters);
  } else {
    EXPECT_GT(r.ops(), 0u);  // wrap: still a consistent suffix
  }
  // Phase lag was recorded for every completion seen.
  EXPECT_EQ(r.phase_lag.total(), r.ops());
  // The dense-id overloads were never used: tids stay < kThreads.
  for (const trace_event& e : events) EXPECT_LT(e.tid, kThreads);
  global_trace().reset();
}

}  // namespace
}  // namespace kpq::obs
