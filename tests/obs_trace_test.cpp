// Trace ring and trace domain: wrap-around exactness, concurrent writers on
// distinct rings, drain-at-quiescence, the queue's wf_trace hook as the one
// thing that records (untraced queues, the sharded front-end, the reclaimer
// and the waiter hub record nothing), and the derived wait-freedom metrics
// over both synthetic and real (traced wf_queue and wf_queue_fps) event
// streams, with the exact keys write_metrics writes for them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "obs/trace_ring.hpp"
#include "obs/wf_metrics.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "scale/sharded_queue.hpp"
#include "support/hooks.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/waiter_hub.hpp"

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

// A trace stored outside the process may carry the numeric kind, so a
// kind keeps its value for good and a retired value stays unused.
constexpr std::pair<trace_kind, unsigned> kPinnedKinds[] = {
    {trace_kind::enq_publish, 0},  {trace_kind::enq_complete, 1},
    {trace_kind::deq_publish, 2},  {trace_kind::deq_complete, 3},
    {trace_kind::help_start, 4},   {trace_kind::help_finish, 5},
    {trace_kind::retire, 7},
};

TEST(ObsTraceKinds, StoredNumericValuesAreStable) {
  for (const auto& [kind, value] : kPinnedKinds) {
    EXPECT_EQ(static_cast<unsigned>(kind), value) << trace_kind_name(kind);
  }
}

TEST(ObsTraceKinds, EveryLiveKindIsNamedAndRetiredOnesAreNot) {
  std::set<std::string> names;
  for (const auto& [kind, value] : kPinnedKinds) {
    const std::string name = trace_kind_name(kind);
    EXPECT_NE(name, "unknown") << "kind " << value;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(kPinnedKinds)) << "names must be unique";
  for (unsigned v : {6u, 8u, 9u, 10u, 11u, 12u, 13u, 14u}) {
    EXPECT_STREQ(trace_kind_name(static_cast<trace_kind>(v)), "unknown")
        << "kind " << v;
  }
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

TEST(ObsTraceHook, OnlyTheTracedOptionsTrace) {
  static_assert(std::is_same_v<wf_options::hooks, no_hooks>);
  static_assert(std::is_same_v<wf_options_traced::hooks, wf_trace>);
}

TEST(ObsTraceHook, WfTraceRecordsEventsZeroToSevenIntoGlobalDomain) {
  global_trace().reset();
  wf_trace::event(3, wf_event::help_start, 7, 1);
  wf_trace::event(3, wf_event::enq_done_for, 7, 1);  // a counter-only event
  wf_trace::event(3, wf_event::help_finish, 7, 1);
  const auto events = global_trace().drain_all();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, trace_kind::help_start);
  EXPECT_EQ(events[0].tid, 3u);
  EXPECT_EQ(events[0].phase, 7);
  EXPECT_EQ(events[1].kind, trace_kind::help_finish);
  global_trace().reset();
}

TEST(ObsTraceHook, DefaultOptionsQueuesRecordNothing) {
  // Without wf_trace in its hooks a queue's hook calls are empty: a run
  // that publishes, completes, retires and finds the queue empty leaves the
  // global domain as it was.
  global_trace().reset();
  {
    wf_queue<std::uint64_t> q(2);
    wf_queue_fps<std::uint64_t> f(2);
    for (std::uint64_t i = 0; i < 64; ++i) {
      q.enqueue(i, i % 2);
      f.enqueue(i, i % 2);
    }
    for (std::uint64_t i = 0; i < 64; ++i) {
      ASSERT_EQ(q.dequeue(i % 2), std::optional<std::uint64_t>(i));
      ASSERT_EQ(f.dequeue(i % 2), std::optional<std::uint64_t>(i));
    }
    EXPECT_FALSE(q.dequeue(0).has_value());
    EXPECT_FALSE(f.dequeue(1).has_value());
  }
  std::uint64_t dropped = 0;
  EXPECT_TRUE(global_trace().drain_all(&dropped).empty());
  EXPECT_EQ(dropped, 0u);
}

class resuming_waiter final : public waiter_hub::waiter {
  waiter_hub::accept_result try_accept() noexcept override {
    return waiter_hub::accept_result::needs_resume;
  }
  void resume() noexcept override {}
};

TEST(ObsTraceHook, StealsScansAndParksLiveInCountersNotTheTrace) {
  // Steals, empty scans, reclaimer scans and waiter parks/resumes are
  // counted by their components, never traced: the trace holds only what
  // a traced queue's hook records.
  global_trace().reset();
  sharded_queue<wf_queue<std::uint64_t>> sq(2, 2);
  sq.enqueue(42, 0);  // shard 0
  EXPECT_EQ(sq.dequeue(1), std::optional<std::uint64_t>(42));  // a steal
  EXPECT_EQ(sq.dequeue(1), std::nullopt);                      // empty scan
  EXPECT_EQ(sq.aggregate_counters().stolen, 1u);
  EXPECT_EQ(sq.aggregate_counters().empty_scans, 1u);

  hp_domain d(1, 1, /*scan_threshold=*/1);  // scan on every retire
  d.retire(0, new int(7), [](void*, void* p) { delete static_cast<int*>(p); },
           nullptr);
  EXPECT_EQ(d.retired_count(), 1u);
  EXPECT_EQ(d.freed_count(), 1u);

  waiter_hub hub;
  resuming_waiter w;
  {
    auto lk = hub.lock();
    hub.enlist(w, lk);
    hub.commit_park(lk);
  }
  hub.notify_one();
  hub.on_resumed(w);
  EXPECT_EQ(hub.stats().parks, 1u);
  EXPECT_EQ(hub.stats().resumes, 1u);

  EXPECT_TRUE(global_trace().drain_all().empty());
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
  // The quantiles are the samples themselves: the one 100-tick episode,
  // and lags {2, 1} sorted to {1, 2}.
  EXPECT_EQ(r.help_latency, std::vector<std::uint64_t>{100});
  EXPECT_EQ(nearest_rank(r.help_latency, 1.0), 100u);
  EXPECT_EQ(r.phase_lag, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(nearest_rank(r.phase_lag, 0.5), 1u);
  EXPECT_EQ(nearest_rank(r.phase_lag, 1.0), 2u);
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

TEST(ObsWfMetrics, RetiredKindsInAStreamAreIgnored) {
  // A trace stored before kinds 6 and 8-13 were retired still analyses:
  // those events count toward nothing, and the live ones around them
  // count as before.
  std::vector<trace_event> events;
  auto push = [&](std::uint64_t ts, trace_kind k, std::int64_t phase,
                  std::uint32_t aux) {
    trace_event e;
    e.ts = ts;
    e.kind = k;
    e.tid = 0;
    e.phase = phase;
    e.aux = aux;
    events.push_back(e);
  };
  push(10, trace_kind::enq_publish, 1, 0);
  for (unsigned v : {6u, 8u, 9u, 10u, 11u, 12u, 13u}) {
    push(10 + v, static_cast<trace_kind>(v), 0, 1);
  }
  push(30, trace_kind::enq_complete, 1, 0);
  const wf_trace_report r = analyze_trace(events);
  EXPECT_EQ(r.enq_ops, 1u);
  EXPECT_EQ(r.deq_ops, 0u);
  EXPECT_EQ(r.empty_deqs, 0u);
  EXPECT_EQ(r.help_episodes, 0u);
  EXPECT_EQ(r.unmatched_helps, 0u);
  EXPECT_EQ(r.retires, 0u);
  EXPECT_EQ(r.phase_lag.size(), 1u);
  EXPECT_EQ(r.max_phase_seen, 1);
}

TEST(ObsWfMetrics, EmptyTraceYieldsAllZeroFiniteReport) {
  const wf_trace_report r = analyze_trace({});
  EXPECT_EQ(r.ops(), 0u);
  EXPECT_EQ(r.helped_per_op(), 0.0);  // n==0 guard: no NaN
  EXPECT_EQ(nearest_rank(r.help_latency, 0.99), 0u);
}

trace_event event_at(std::uint64_t ts, trace_kind kind, std::uint32_t tid,
                     std::int64_t phase, std::uint32_t aux = 0) {
  trace_event e;
  e.ts = ts;
  e.kind = kind;
  e.tid = tid;
  e.phase = phase;
  e.aux = aux;
  return e;
}

TEST(ObsWfMetrics, EverySampleIsKeptAndSorted) {
  // Three episodes of 30, 10 and 20 ticks and three completions lagging
  // 3, 0 and 2 phases: the report holds each sample once, ascending.
  const std::vector<trace_event> ev = {
      event_at(0, trace_kind::enq_publish, 0, 4),
      event_at(10, trace_kind::help_start, 0, 1),
      event_at(40, trace_kind::help_finish, 0, 1),
      event_at(50, trace_kind::enq_complete, 0, 1),  // lag 3
      event_at(60, trace_kind::help_start, 0, 2),
      event_at(70, trace_kind::help_finish, 0, 2),
      event_at(80, trace_kind::deq_complete, 0, 4, 1),  // lag 0
      event_at(90, trace_kind::help_start, 0, 2),
      event_at(110, trace_kind::help_finish, 0, 2),
      event_at(120, trace_kind::enq_complete, 0, 2),  // lag 2
  };
  const wf_trace_report r = analyze_trace(ev);
  EXPECT_EQ(r.help_episodes, 3u);
  EXPECT_EQ(r.help_latency, (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_EQ(r.ops(), 3u);
  EXPECT_EQ(r.phase_lag, (std::vector<std::uint64_t>{0, 2, 3}));
  EXPECT_EQ(nearest_rank(r.help_latency, 0.5), 20u);
  EXPECT_EQ(nearest_rank(r.phase_lag, 0.5), 2u);
}

TEST(ObsWfMetrics, InterleavedEpisodesPairWithinTheirThread) {
  // t0 helps from 10 to 50 while t1 helps from 20 to 25: each finish
  // closes its own thread's episode, not the latest start.
  const std::vector<trace_event> ev = {
      event_at(10, trace_kind::help_start, 0, 1),
      event_at(20, trace_kind::help_start, 1, 1),
      event_at(25, trace_kind::help_finish, 1, 1),
      event_at(50, trace_kind::help_finish, 0, 1),
  };
  const wf_trace_report r = analyze_trace(ev);
  EXPECT_EQ(r.help_episodes, 2u);
  EXPECT_EQ(r.unmatched_helps, 0u);
  EXPECT_EQ(r.help_latency, (std::vector<std::uint64_t>{5, 40}));
}

TEST(ObsWfMetrics, ConcurrentRecordingLosesNoSample) {
  // Four threads record help episodes at once; the drained, merged trace
  // yields one latency sample per episode.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kEpisodes = 2000;
  trace_domain domain(kThreads, /*capacity_per_thread=*/8192);

  spin_barrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (std::uint32_t i = 0; i < kEpisodes; ++i) {
        domain.record(t, trace_kind::help_start, i, 0);
        domain.record(t, trace_kind::help_finish, i, 0);
      }
    });
  }
  for (auto& w : workers) w.join();

  std::uint64_t dropped = 0;
  const auto events = domain.drain_all(&dropped);
  EXPECT_EQ(dropped, 0u);
  const wf_trace_report r = analyze_trace(events, dropped, kThreads);
  EXPECT_EQ(r.help_episodes, std::uint64_t{kThreads} * kEpisodes);
  EXPECT_EQ(r.help_latency.size(), r.help_episodes);
  EXPECT_EQ(r.unmatched_helps, 0u);
  EXPECT_TRUE(std::is_sorted(r.help_latency.begin(), r.help_latency.end()));
}

TEST(ObsWfMetrics, WriteMetricsWritesSampleQuantiles) {
  wf_trace_report r;
  r.enq_ops = 3;
  r.deq_ops = 1;
  r.empty_deqs = 1;
  r.help_episodes = 2;
  r.retires = 4;
  r.max_phase_seen = 7;
  r.help_latency = {5, 40};
  r.phase_lag = {0, 1, 1, 3};
  json_writer w;
  w.begin_object();
  write_metrics(w, "t", r);
  w.end_object();
  // Keys in write order; p50/p90/p99 are ranks 1/2/2 of two latencies and
  // 2/4/4 of four lags.
  EXPECT_EQ(w.str(),
            "{\"t.enq_ops\":3,\"t.deq_ops\":1,\"t.empty_deqs\":1,"
            "\"t.help_episodes\":2,\"t.helped_per_op\":0.5,\"t.retires\":4,"
            "\"t.dropped_events\":0,\"t.max_phase\":7,"
            "\"t.help_latency_ticks.p50\":5,\"t.phase_lag.p50\":1,"
            "\"t.help_latency_ticks.p90\":40,\"t.phase_lag.p90\":3,"
            "\"t.help_latency_ticks.p99\":40,\"t.phase_lag.p99\":3}");
}

TEST(ObsWfMetrics, WriteMetricsOfAnEmptyReportIsAllZero) {
  // A trace in which nothing fired exports 0 everywhere, never NaN.
  json_writer w;
  w.begin_object();
  write_metrics(w, "idle", analyze_trace({}));
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"idle.enq_ops\":0,\"idle.deq_ops\":0,\"idle.empty_deqs\":0,"
            "\"idle.help_episodes\":0,\"idle.helped_per_op\":0,"
            "\"idle.retires\":0,\"idle.dropped_events\":0,"
            "\"idle.max_phase\":0,"
            "\"idle.help_latency_ticks.p50\":0,\"idle.phase_lag.p50\":0,"
            "\"idle.help_latency_ticks.p90\":0,\"idle.phase_lag.p90\":0,"
            "\"idle.help_latency_ticks.p99\":0,\"idle.phase_lag.p99\":0}");
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

struct fps_traced_options : fps_options {
  using hooks = wf_trace;
};

constexpr std::uint32_t kThreads = 4;
constexpr std::uint64_t kIters = 2000;

template <typename Q>
void run_pairs(Q& q) {
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

/// Drains the global trace of one run_pairs() whose announced operations
/// were `enqs` enqueues and `deqs` dequeues, and checks it tells that run.
void expect_trace_of_pairs(std::uint64_t enqs, std::uint64_t deqs) {
  std::uint64_t dropped = 0;
  const auto events = global_trace().drain_all(&dropped);
  const wf_trace_report r = analyze_trace(events, dropped, kThreads);
  if (dropped == 0) {
    EXPECT_EQ(r.enq_ops, enqs);
    EXPECT_EQ(r.deq_ops, deqs);
    // Each thread's dequeue follows its own enqueue, so every one finds an
    // item, and each item's head swing retires one node.
    EXPECT_EQ(r.empty_deqs, 0u);
    EXPECT_EQ(r.retires, kThreads * kIters);
  } else {
    EXPECT_GT(r.retires, 0u);  // wrap: still a consistent suffix
  }
  // Phase lag was recorded for every completion seen.
  EXPECT_EQ(r.phase_lag.size(), r.ops());
  // The dense-id overloads were never used: tids stay < kThreads.
  for (const trace_event& e : events) EXPECT_LT(e.tid, kThreads);
  global_trace().reset();
}

TEST(ObsTracedQueue, ConcurrentRunProducesConsistentTrace) {
  // opt: every operation announces, so the trace holds all of them.
  global_trace().reset();
  {
    wf_queue<std::uint64_t, help_one, fetch_add_phase, hp_domain,
             wf_options_traced>
        q(kThreads);
    run_pairs(q);
  }
  expect_trace_of_pairs(kThreads * kIters, kThreads * kIters);

  // fps: only slow-path operations announce, but a fast dequeue's head
  // swing still retires, so the fast path's trace writes run too.
  fps_path_stats ps;
  {
    wf_queue_fps<std::uint64_t, hp_domain, fps_traced_options> q(kThreads);
    run_pairs(q);
    ps = q.aggregate_path_counters();
  }
  EXPECT_EQ(ps.ops(), 2 * kThreads * kIters);
  expect_trace_of_pairs(ps.slow_enqs, ps.slow_deqs);
}

// Two hooks on one queue must tell one story: the trace's derived counts
// equal the counters of the same run. A frozen owner makes the helping
// deterministic (help_all: a peer helps it at its next operation).
std::atomic<std::int64_t> frozen_tid{-1};
std::atomic<bool> is_frozen{false};

struct freeze_at_publish : no_hooks {
  static void event(std::uint32_t tid, wf_event e, std::int64_t /*phase*/,
                    std::uint32_t /*aux*/) {
    if (!testing::is_publish(e) ||
        static_cast<std::int64_t>(tid) != frozen_tid.load()) {
      return;
    }
    is_frozen.store(true);
    while (frozen_tid.load() == static_cast<std::int64_t>(tid)) {
      std::this_thread::yield();
    }
    is_frozen.store(false);
  }
};
// Trace and stats before the freeze, so the publish is in both first.
struct agreeing_options : wf_options {
  using hooks = testing::compose<wf_trace, wf_stats, freeze_at_publish>;
};

void thaw(std::thread& owner) {
  frozen_tid.store(-1);
  owner.join();
}

TEST(ObsTracedQueue, TraceAndCountersOfOneRunAgree) {
  using Q = wf_queue<std::uint64_t, help_all, scan_max_phase, hp_domain,
                     agreeing_options>;
  global_trace().reset();
  Q q(3);
  std::optional<std::uint64_t> got;

  frozen_tid.store(0);  // a peer's dequeue completes the frozen enqueue
  std::thread owner([&] { q.enqueue(42, 0); });
  while (!is_frozen.load()) std::this_thread::yield();
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(42));
  thaw(owner);

  q.enqueue(7, 1);
  frozen_tid.store(2);  // a peer's enqueue completes the frozen dequeue
  owner = std::thread([&] { got = q.dequeue(2); });
  while (!is_frozen.load()) std::this_thread::yield();
  q.enqueue(8, 1);
  thaw(owner);
  EXPECT_EQ(got, std::optional<std::uint64_t>(7));

  frozen_tid.store(0);  // the helper's own dequeue then finds it empty
  owner = std::thread([&] { got = q.dequeue(0); });
  while (!is_frozen.load()) std::this_thread::yield();
  EXPECT_EQ(q.dequeue(1), std::nullopt);
  thaw(owner);
  EXPECT_EQ(got, std::optional<std::uint64_t>(8));
  EXPECT_EQ(q.dequeue(2), std::nullopt);

  std::uint64_t dropped = 0;
  const wf_trace_report r =
      analyze_trace(global_trace().drain_all(&dropped), dropped, 3);
  const wf_counters c = q.aggregate_counters();
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(r.enq_ops, c.enq_ops);
  EXPECT_EQ(r.deq_ops, c.deq_ops);
  EXPECT_EQ(r.empty_deqs, c.empty_deqs);
  EXPECT_EQ(r.help_episodes,
            c.helped_enq_completions + c.helped_deq_completions);
  // The run itself: 3 enqueues, 5 dequeues (two of them empty), and one
  // helping episode per frozen operation.
  EXPECT_EQ(c.enq_ops, 3u);
  EXPECT_EQ(c.deq_ops, 5u);
  EXPECT_EQ(c.empty_deqs, 2u);
  EXPECT_EQ(r.help_episodes, 3u);
  global_trace().reset();
}

}  // namespace
}  // namespace kpq::obs
