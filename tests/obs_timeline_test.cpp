// Timeline export: synthetic traces -> Chrome/Perfetto trace-event JSON.
// Checks the schema tag, the point->slice pairing for ops and help
// episodes, helper->helped flow arrows and their ids, tick->microsecond
// mapping, truncated (wrapped) traces, instant fallbacks, a real drained
// trace surviving the converter, and that the timeline and analyze_trace
// read the same pairs (help slices, flow targets, a brute-force check of
// every arrow).
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/workload.hpp"
#include "obs/calibrate.hpp"
#include "obs/trace_ring.hpp"
#include "obs/wf_metrics.hpp"

namespace kpq::obs {
namespace {

tick_calibration ns_cal() {
  tick_calibration cal;
  cal.tick_hz = 1e9;  // 1 tick == 1 ns == 1e-3 us
  cal.base_ticks = 0;
  cal.base_ns = 0;
  return cal;
}

trace_event ev(std::uint64_t ts, trace_kind k, std::uint32_t tid,
               std::int64_t phase, std::uint32_t aux = 0) {
  trace_event e;
  e.ts = ts;
  e.kind = k;
  e.tid = tid;
  e.phase = phase;
  e.aux = aux;
  return e;
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ObsTimeline, EmptyTraceStillEmitsValidDocument) {
  const std::string doc = trace_to_timeline({}, ns_cal());
  EXPECT_NE(doc.find("\"kpqTraceSchema\":\"kpq-trace-1\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"event_count\":0"), std::string::npos);
}

TEST(ObsTimeline, PublishCompletePairsBecomeCompleteSlices) {
  std::vector<trace_event> events;
  events.push_back(ev(1000, trace_kind::enq_publish, 0, 7));
  events.push_back(ev(3000, trace_kind::enq_complete, 0, 7));
  events.push_back(ev(2000, trace_kind::deq_publish, 1, 9));
  events.push_back(ev(6000, trace_kind::deq_complete, 1, 9, /*hit=*/1));

  const std::string doc = trace_to_timeline(events, ns_cal());
  EXPECT_NE(doc.find("\"name\":\"enqueue\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"dequeue\",\"ph\":\"X\""), std::string::npos);
  // 2000 ticks == 2 us duration for the enqueue slice.
  EXPECT_NE(doc.find("\"dur\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"hit\":true"), std::string::npos);
  // Orphan publishes (no complete) must not leak open slices.
  EXPECT_EQ(count_of(doc, "\"ph\":\"X\""), 2u);
}

TEST(ObsTimeline, HelpEpisodeProducesSliceAndFlowArrow) {
  // Thread 2 stalls mid-dequeue at phase 9; thread 1 helps it through.
  std::vector<trace_event> events;
  events.push_back(ev(1000, trace_kind::deq_publish, 2, 9));
  events.push_back(ev(1500, trace_kind::help_start, 1, 9, /*victim=*/2));
  events.push_back(ev(2500, trace_kind::help_finish, 1, 9, /*victim=*/2));
  events.push_back(ev(3000, trace_kind::deq_complete, 2, 9, /*hit=*/1));

  const std::string doc = trace_to_timeline(events, ns_cal());
  EXPECT_NE(doc.find("\"name\":\"help\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"victim\":2"), std::string::npos);
  // One flow arrow: "s" at the helper, "f" (bp:"e") at the victim's
  // completion slice, sharing an id.
  EXPECT_EQ(count_of(doc, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_of(doc, "\"ph\":\"f\""), 1u);
  EXPECT_NE(doc.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"help_flow\""), std::string::npos);
}

TEST(ObsTimeline, FlowArrowNeedsAMatchingVictimCompletion) {
  // Victim never completes -> episode slice but no arrow.
  std::vector<trace_event> events;
  events.push_back(ev(1500, trace_kind::help_start, 1, 9, 2));
  events.push_back(ev(2500, trace_kind::help_finish, 1, 9, 2));
  // A completion by the victim at a DIFFERENT phase must not match either.
  events.push_back(ev(3000, trace_kind::deq_complete, 2, 8, 1));

  const std::string doc = trace_to_timeline(events, ns_cal());
  EXPECT_NE(doc.find("\"name\":\"help\",\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(count_of(doc, "\"ph\":\"s\""), 0u);
  EXPECT_EQ(count_of(doc, "\"ph\":\"f\""), 0u);
}

TEST(ObsTimeline, FlowArrowIgnoresVictimCompletionsBeforeTheHelpBegan) {
  // The victim's phase-9 completion at 1000 ticks predates the episode, so
  // it is not the helped operation; the arrow targets the one at 3000.
  std::vector<trace_event> events;
  events.push_back(ev(1000, trace_kind::deq_complete, 2, 9, 1));
  events.push_back(ev(1500, trace_kind::help_start, 1, 9, 2));
  events.push_back(ev(2500, trace_kind::help_finish, 1, 9, 2));

  std::string doc = trace_to_timeline(events, ns_cal());
  EXPECT_EQ(count_of(doc, "\"ph\":\"s\""), 0u);
  EXPECT_EQ(count_of(doc, "\"ph\":\"f\""), 0u);

  events.push_back(ev(3000, trace_kind::deq_complete, 2, 9, 1));
  doc = trace_to_timeline(events, ns_cal());
  EXPECT_EQ(count_of(doc, "\"ph\":\"f\""), 1u);
  // 3000 ticks, based at the first event (1000), is 2 us.
  EXPECT_NE(doc.find("\"ph\":\"f\",\"pid\":0,\"tid\":2,\"ts\":2,"),
            std::string::npos);
}

TEST(ObsTimeline, EveryEpisodeGetsItsOwnFlowId) {
  std::vector<trace_event> events;
  events.push_back(ev(100, trace_kind::help_start, 1, 9, /*victim=*/2));
  events.push_back(ev(200, trace_kind::help_start, 3, 4, /*victim=*/0));
  events.push_back(ev(300, trace_kind::help_finish, 1, 9, 2));
  events.push_back(ev(400, trace_kind::help_finish, 3, 4, 0));
  events.push_back(ev(500, trace_kind::enq_complete, 0, 4));
  events.push_back(ev(600, trace_kind::deq_complete, 2, 9, 1));

  const std::string doc = trace_to_timeline(events, ns_cal());
  EXPECT_EQ(count_of(doc, "\"ph\":\"s\""), 2u);
  EXPECT_EQ(count_of(doc, "\"ph\":\"f\""), 2u);
  // Each id names exactly one s/f pair.
  EXPECT_EQ(count_of(doc, "\"id\":1"), 2u);
  EXPECT_EQ(count_of(doc, "\"id\":2"), 2u);
  EXPECT_NE(doc.find("\"ph\":\"s\",\"pid\":0,\"tid\":1,"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"s\",\"pid\":0,\"tid\":3,"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"f\",\"pid\":0,\"tid\":2,"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"f\",\"pid\":0,\"tid\":0,"), std::string::npos);
}

TEST(ObsTimeline, UnpairedEndpointsOfATruncatedTraceDrawNothing) {
  // A drain after wrap-around starts mid-operation: completions whose
  // publish and a help_finish whose help_start were overwritten.
  std::vector<trace_event> events;
  events.push_back(ev(100, trace_kind::enq_complete, 0, 3));
  events.push_back(ev(200, trace_kind::help_finish, 1, 5, 2));
  events.push_back(ev(300, trace_kind::deq_complete, 2, 5, 1));

  const std::string doc = trace_to_timeline(events, ns_cal(), /*dropped=*/40);
  EXPECT_EQ(count_of(doc, "\"ph\":\"X\""), 0u);
  EXPECT_EQ(count_of(doc, "\"ph\":\"s\""), 0u);
  // Slice endpoints never fall back to instants.
  EXPECT_EQ(count_of(doc, "\"ph\":\"i\""), 0u);
  EXPECT_NE(doc.find("\"event_count\":3"), std::string::npos);
}

TEST(ObsTimeline, TimesAreMicrosecondsFromTheFirstEvent) {
  tick_calibration cal = ns_cal();
  cal.tick_hz = 2e9;  // 2 ticks per ns
  std::vector<trace_event> events;
  events.push_back(ev(4000, trace_kind::enq_publish, 0, 1));
  events.push_back(ev(7000, trace_kind::enq_complete, 0, 1));
  events.push_back(ev(10000, trace_kind::retire, 0, 0));

  const std::string doc = trace_to_timeline(events, cal);
  EXPECT_NE(doc.find("\"tick_hz\":2000000000"), std::string::npos);
  // 3000 ticks at 2 GHz: a 1.5 us slice starting at the timeline origin.
  EXPECT_NE(doc.find("\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":1.5,"),
            std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":3,"),
            std::string::npos);
}

TEST(ObsTimeline, PointKindsBecomeInstants) {
  std::vector<trace_event> events;
  events.push_back(ev(100, trace_kind::retire, 3, 0, 42));
  events.push_back(ev(200, trace_kind::retire, 3, 0, 43));
  events.push_back(ev(300, trace_kind::retire, 0, 0, 2));

  const std::string doc = trace_to_timeline(events, ns_cal());
  EXPECT_EQ(count_of(doc, "\"name\":\"retire\",\"ph\":\"i\""), 3u);
  EXPECT_NE(doc.find("\"aux\":42"), std::string::npos);
  EXPECT_EQ(count_of(doc, "\"s\":\"t\""), 3u);
}

TEST(ObsTimeline, ThreadMetadataNamesEverySeenTid) {
  std::vector<trace_event> events;
  events.push_back(ev(100, trace_kind::retire, 0, 0));
  events.push_back(ev(200, trace_kind::retire, 5, 0));

  const std::string doc = trace_to_timeline(events, ns_cal());
  EXPECT_NE(doc.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_EQ(count_of(doc, "\"name\":\"thread_name\""), 2u);
  EXPECT_NE(doc.find("worker 5"), std::string::npos);
}

TEST(ObsTimeline, DroppedCountSurfacesInOtherData) {
  const std::string doc = trace_to_timeline({}, ns_cal(), /*dropped=*/17);
  EXPECT_NE(doc.find("\"dropped_events\":17"), std::string::npos);
}

TEST(ObsTimeline, RealDrainedTraceConverts) {
  // Feed the converter a drain from a real domain (owner-recorded events)
  // rather than synthetic structs, so field conventions stay honest.
  trace_domain domain(2, 1024);
  domain.record(0, trace_kind::enq_publish, 1, 0);
  domain.record(0, trace_kind::enq_complete, 1, 0);
  domain.record(1, trace_kind::deq_publish, 2, 0);
  domain.record(1, trace_kind::deq_complete, 2, 1);

  std::uint64_t dropped = 0;
  const std::vector<trace_event> events = domain.drain_all(&dropped);
  ASSERT_EQ(events.size(), 4u);

  const tick_calibration cal = calibrate_ticks(2'000'000);
  const std::string doc = trace_to_timeline(events, cal, dropped);
  EXPECT_NE(doc.find("\"kpqTraceSchema\":\"kpq-trace-1\""), std::string::npos);
  EXPECT_EQ(count_of(doc, "\"ph\":\"X\""), 2u);
}


// ------------------------------------------- timeline and report agree

struct flow_end {
  char ph = 0;  // 's' at the helper, 'f' at the helped completion
  std::uint32_t tid = 0;
  double ts = 0;
  std::uint64_t id = 0;
};

/// Every flow event of a timeline document, in document order.
std::vector<flow_end> flow_ends(const std::string& doc) {
  std::vector<flow_end> out;
  const std::string ph = "\"ph\":\"";
  for (std::size_t pos = doc.find(ph); pos != std::string::npos;
       pos = doc.find(ph, pos + ph.size())) {
    const std::string at = doc.substr(pos, 128);  // sscanf would strlen doc
    flow_end f;
    unsigned long long id = 0;
    if (std::sscanf(at.c_str(),
                    "\"ph\":\"%c\",\"pid\":0,\"tid\":%u,\"ts\":%lf,"
                    "\"cat\":\"help_flow\",\"id\":%llu",
                    &f.ph, &f.tid, &f.ts, &id) == 4) {
      f.id = id;
      out.push_back(f);
    }
  }
  return out;
}

/// The timeline's clock for `events`: ns_cal based at the first event.
tick_calibration based_at_first(const std::vector<trace_event>& events) {
  tick_calibration cal = ns_cal();
  cal.base_ticks = events.front().ts;
  return cal;
}

TEST(ObsTimelineAgreement, HelpSlicesAndFlowTargetsMatchTheReport) {
  const std::vector<trace_event> events = {
      ev(10, trace_kind::enq_publish, 0, 1),
      ev(12, trace_kind::help_start, 1, 1, /*victim=*/0),
      ev(20, trace_kind::help_finish, 1, 1, 0),
      ev(25, trace_kind::enq_complete, 0, 1),     // t1's arrow lands here
      ev(30, trace_kind::help_finish, 2, 7, 3),   // no start: unmatched
      ev(31, trace_kind::deq_publish, 3, 7),
      ev(33, trace_kind::help_start, 2, 7, 3),    // replaced: unmatched
      ev(35, trace_kind::help_start, 2, 7, 3),
      ev(40, trace_kind::help_finish, 2, 7, 3),
      ev(45, trace_kind::deq_complete, 3, 7, 1),  // t2's arrow lands here
      ev(50, trace_kind::help_start, 1, 9, 2),    // left open: unmatched
      ev(52, trace_kind::help_start, 3, 4, 0),
      ev(54, trace_kind::help_finish, 3, 4, 0),
      ev(55, trace_kind::deq_complete, 0, 4, 0),  // publish lost; t3's arrow
      ev(60, trace_kind::retire, 2, 0, 5),
  };
  const std::string doc = trace_to_timeline(events, ns_cal());
  const wf_trace_report r = analyze_trace(events);
  EXPECT_EQ(r.help_episodes, 3u);
  EXPECT_EQ(r.unmatched_helps, 3u);
  EXPECT_EQ(r.ops(), 3u);
  EXPECT_EQ(count_of(doc, "\"cat\":\"help\""), r.help_episodes);

  // Every arrow's "f" end sits on a completion the report counted.
  const tick_calibration cal = based_at_first(events);
  std::set<std::pair<std::uint32_t, double>> completions;
  for (const trace_event& e : events) {
    if (e.kind == trace_kind::enq_complete ||
        e.kind == trace_kind::deq_complete) {
      completions.insert({e.tid, cal.to_us(e.ts)});
    }
  }
  ASSERT_EQ(completions.size(), r.ops());
  std::size_t arrows = 0;
  for (const flow_end& f : flow_ends(doc)) {
    if (f.ph != 'f') continue;
    ++arrows;
    EXPECT_EQ(completions.count({f.tid, f.ts}), 1u)
        << "f end at tid " << f.tid << ", ts " << f.ts;
  }
  EXPECT_EQ(arrows, 3u);
}

TEST(ObsTimelineAgreement, FlowArrowsMatchABruteForceSearch) {
  // Four threads run operations and helping episodes at random; phases
  // come from a small range, so a victim has many completions per phase
  // and the arrow must pick the first one at or after the help began.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kEpisodes = 3000;
  struct thread_state {
    bool in_op = false, is_enq = false, helping = false;
    std::int64_t phase = 0, victim_phase = 0;
    std::uint32_t victim = 0;
  };
  std::array<thread_state, kThreads> st{};
  fast_rng rng(49);
  std::vector<trace_event> events;
  std::uint64_t ts = 100, started = 0;
  while (started < kEpisodes) {
    ts += 1 + rng.next() % 4;
    const auto t = static_cast<std::uint32_t>(rng.next() % kThreads);
    thread_state& s = st[t];
    if (rng.coin()) {
      if (!s.in_op) {
        s.is_enq = rng.coin();
        s.phase = static_cast<std::int64_t>(rng.next() % 64);
        events.push_back(ev(ts, s.is_enq ? trace_kind::enq_publish
                                         : trace_kind::deq_publish,
                            t, s.phase));
      } else {
        events.push_back(ev(ts, s.is_enq ? trace_kind::enq_complete
                                         : trace_kind::deq_complete,
                            t, s.phase, s.is_enq ? 0 : 1));
      }
      s.in_op = !s.in_op;
    } else {
      if (!s.helping) {
        s.victim = static_cast<std::uint32_t>(rng.next() % kThreads);
        s.victim_phase = static_cast<std::int64_t>(rng.next() % 64);
        events.push_back(
            ev(ts, trace_kind::help_start, t, s.victim_phase, s.victim));
        ++started;
      } else {
        events.push_back(
            ev(ts, trace_kind::help_finish, t, s.victim_phase, s.victim));
      }
      s.helping = !s.helping;
    }
  }

  // Brute force, in finish order: each episode's arrow goes to the
  // victim's first completion with the episode's phase at or after the
  // help_start, searched over the whole trace.
  const tick_calibration cal = based_at_first(events);
  using arrow = std::tuple<std::uint32_t, double, std::uint32_t, double>;
  std::vector<arrow> expected;
  std::array<const trace_event*, kThreads> open{};
  std::uint64_t episodes = 0;
  for (const trace_event& e : events) {
    if (e.kind == trace_kind::help_start) open[e.tid] = &e;
    if (e.kind != trace_kind::help_finish) continue;
    ++episodes;
    for (const trace_event& c : events) {
      if ((c.kind == trace_kind::enq_complete ||
           c.kind == trace_kind::deq_complete) &&
          c.tid == e.aux && c.phase == e.phase && c.ts >= open[e.tid]->ts) {
        expected.emplace_back(e.tid, cal.to_us(e.ts), c.tid, cal.to_us(c.ts));
        break;
      }
    }
  }
  ASSERT_GT(expected.size(), kEpisodes / 2);

  const std::string doc = trace_to_timeline(events, ns_cal());
  const std::vector<flow_end> ends = flow_ends(doc);
  ASSERT_EQ(ends.size(), 2 * expected.size());
  std::vector<arrow> got(expected.size());
  for (const flow_end& f : ends) {
    ASSERT_GE(f.id, 1u);
    ASSERT_LE(f.id, got.size());
    arrow& a = got[f.id - 1];
    if (f.ph == 's') {
      std::get<0>(a) = f.tid;
      std::get<1>(a) = f.ts;
    } else {
      std::get<2>(a) = f.tid;
      std::get<3>(a) = f.ts;
    }
  }
  EXPECT_EQ(got, expected);
  const wf_trace_report r = analyze_trace(events);
  EXPECT_EQ(r.help_episodes, episodes);
  EXPECT_EQ(count_of(doc, "\"cat\":\"help\""), r.help_episodes);
}

}  // namespace
}  // namespace kpq::obs
