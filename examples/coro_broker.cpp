// Example: an event-loop request broker serving tens of thousands of
// suspended coroutine sessions over sharded wait-free queues.
//
//   build/examples/coro_broker [sessions] [shards] [workers]
//
// The service shape the async front-end exists for: each SESSION is a
// coroutine that submits one echo request and suspends until its response
// arrives; a handful of WORKER coroutines multiplex every shard with
// co_select (async_sharded::co_dequeue_any), echo the payload, and resume
// the waiting session. All of it runs on ONE event-loop thread — the peak
// number of in-flight (spawned, not yet completed) coroutines equals the
// session count, while the thread count stays 1.
//
// Requests route to shards by key_hash on the session id, so each
// session's traffic stays on one lane (per-key FIFO) no matter which
// thread enqueues — the Kafka-partitioner contract from
// scale/shard_policy.hpp. NOTE: affinity routing would be useless here:
// every enqueue happens on the single loop thread, so tid-based routing
// would funnel all sessions into one shard.
//
// The example validates itself and exits nonzero on any inconsistency:
//   * every session completes with the correct echo (payload ^ kEchoMask),
//   * every request is served exactly once,
//   * the in-flight peak reached the session count,
//   * >= 2 shards actually carried traffic,
//   * the queues drain dry (graceful shutdown: last session closes all
//     shards, workers observe closed-and-drained and exit, run() returns).
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "async/async_queue.hpp"
#include "async/event_loop.hpp"
#include "async/task.hpp"
#include "core/wf_queue.hpp"
#include "scale/async_shards.hpp"
#include "scale/shard_policy.hpp"

namespace {

constexpr std::uint64_t kEchoMask = 0xa5a5'5a5a'c3c3'3c3cULL;

struct request {
  std::uint64_t session = 0;
  std::uint64_t payload = 0;
  std::uint64_t response = 0;
  int served = 0;  // exactly-once check: a worker bumps this when echoing
  bool done = false;
  std::coroutine_handle<> h{};  // the suspended session, resumed via post
};

struct session_key {
  std::uint64_t operator()(const request* r) const noexcept {
    return r->session;
  }
};

using broker_shards =
    kpq::async::async_sharded<kpq::wf_queue_opt<request*>,
                              kpq::key_hash_shards<session_key>>;

// Suspend until a worker marks the request done and posts our handle.
struct echo_awaiter {
  request* r;
  bool await_ready() const noexcept { return r->done; }
  void await_suspend(std::coroutine_handle<> h) noexcept { r->h = h; }
  std::uint64_t await_resume() const noexcept { return r->response; }
};

struct shared_state {
  broker_shards* shards = nullptr;
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;
  std::uint64_t served = 0;
  std::uint64_t echo_errors = 0;
  std::uint64_t double_serves = 0;
  std::vector<std::uint64_t> per_shard{};
};

kpq::async::task<void> session(shared_state& st, request& r) {
  // co_enqueue completes without suspending, then the
  // session parks awaiting its echo. On one loop thread nothing can run
  // between the enqueue and the suspension, so the handle is always set
  // before any worker sees the request.
  (void)co_await st.shards->co_enqueue(&r);
  const std::uint64_t echoed = co_await echo_awaiter{&r};
  if (echoed != (r.payload ^ kEchoMask)) ++st.echo_errors;
  if (++st.completed == st.sessions) st.shards->close_all();
}

kpq::async::task<void> worker(kpq::async::event_loop& loop,
                              shared_state& st) {
  for (std::uint64_t drained = 0;; ++drained) {
    auto got = co_await st.shards->co_dequeue_any();
    if (!got.value) co_return;  // every shard closed-and-drained
    request* r = *got.value;
    ++st.per_shard[got.index];
    if (r->served++ != 0) ++st.double_serves;
    r->response = r->payload ^ kEchoMask;  // the "echo"
    r->done = true;
    ++st.served;
    loop.post(r->h);  // resume the parked session through the loop
    // Cooperative chunking (docs/ASYNC.md §3): while the shards are
    // non-empty every co_dequeue_any completes inline by symmetric
    // transfer, and sanitizer instrumentation keeps that from being a
    // tail call — yield periodically so the resume chain unwinds.
    if ((drained & 0xff) == 0xff) co_await loop.yield();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t sessions =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10000;
  const std::uint32_t shard_count =
      argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10))
               : 2;
  const std::uint32_t workers =
      argc > 3 ? static_cast<std::uint32_t>(std::strtoul(argv[3], nullptr, 10))
               : 2;

  kpq::async::event_loop loop;
  broker_shards shards(shard_count, /*max_threads=*/4);
  shards.set_executor(&loop);

  shared_state st;
  st.shards = &shards;
  st.sessions = sessions;
  st.per_shard.assign(shard_count, 0);

  std::vector<request> requests(sessions);
  for (std::uint64_t i = 0; i < sessions; ++i) {
    requests[i].session = i;
    requests[i].payload = i * 2654435761ULL + 17;
    loop.spawn(session(st, requests[i]));
  }
  // Every session is now suspended awaiting its echo: the in-flight peak.
  const std::size_t peak_in_flight = loop.active();

  for (std::uint32_t w = 0; w < workers; ++w) {
    loop.spawn(worker(loop, st));
  }
  loop.run();  // returns when drained: all sessions + workers completed

  const auto ls = loop.stats();
  std::printf("coro_broker: %llu sessions, %u shards, %u workers\n",
              static_cast<unsigned long long>(sessions), shard_count,
              workers);
  std::printf("  in-flight peak      %zu coroutines (1 thread)\n",
              peak_in_flight);
  std::printf("  served / completed  %llu / %llu\n",
              static_cast<unsigned long long>(st.served),
              static_cast<unsigned long long>(st.completed));
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    std::printf("  shard[%u]            %llu requests, %llu hub parks\n", s,
                static_cast<unsigned long long>(st.per_shard[s]),
                static_cast<unsigned long long>(
                    shards.shard(s).hub().stats().parks));
  }
  std::printf("  loop                %llu resumes, %llu spawned, %llu idle "
              "parks\n",
              static_cast<unsigned long long>(ls.resumes),
              static_cast<unsigned long long>(ls.spawned),
              static_cast<unsigned long long>(ls.idle_parks));
  std::printf("  loop health         ready lag mean %.0f ns (max %llu), "
              "timer slack mean %.0f ns, peak depth %llu\n",
              ls.mean_ready_lag_ns(),
              static_cast<unsigned long long>(ls.ready_lag_ns_max),
              ls.mean_timer_slack_ns(),
              static_cast<unsigned long long>(ls.max_ready_depth));

  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAILED: %s\n", what);
      ok = false;
    }
  };
  check(st.completed == sessions, "every session completed");
  check(st.served == sessions, "every request served");
  check(st.echo_errors == 0, "every echo correct");
  check(st.double_serves == 0, "no request served twice");
  check(peak_in_flight >= sessions, "in-flight peak reached session count");
  check(loop.active() == 0, "loop drained");
  std::uint32_t active_shards = 0;
  for (auto c : st.per_shard) active_shards += c > 0 ? 1 : 0;
  check(shard_count < 2 || active_shards >= 2, "traffic spread over shards");
  std::uint64_t leftovers = 0;
  while (shards.dequeue(0).has_value()) ++leftovers;
  check(leftovers == 0, "queues drained dry");

  if (!ok) return 1;
  std::printf("OK\n");
  return 0;
}
