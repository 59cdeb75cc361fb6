// Timeline export: synthetic traces -> Chrome/Perfetto trace-event JSON.
// Checks the schema tag, the point->slice pairing for ops and help
// episodes, helper->helped flow arrows and their ids, tick->microsecond
// mapping, truncated (wrapped) traces, instant fallbacks, and a real
// drained trace surviving the converter.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/calibrate.hpp"
#include "obs/trace_ring.hpp"

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

}  // namespace
}  // namespace kpq::obs
