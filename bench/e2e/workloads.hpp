// kpqbench workloads. Each runner sets its cell up once (timed: queue
// construction, prefill, and spawning and pinning the workers), runs it
// through a warm-up and a measurement window on pinned workers, and then
// applies its correctness oracles.
//
//   pairs      closed loop, 4 threads alternating enqueue/dequeue on an
//              empty queue (paper Fig. 7).
//   fifty_deep closed loop, 4 threads, seeded 50/50 enqueue/dequeue mix on a
//              queue prefilled with 1M items (paper Fig. 8, prefill x1000).
//   pipeline   open loop, 2 producers at 100k items/s each on a fixed TSC
//              schedule, 2 busy-polling consumers.
//   broker     1 event-loop thread, 256 coroutine sessions echoing through
//              2 key-hash shards served by 2 worker coroutines.
#pragma once

#include <array>
#include <atomic>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "async/async_queue.hpp"
#include "async/event_loop.hpp"
#include "async/task.hpp"
#include "harness.hpp"
#include "harness/timing.hpp"
#include "harness/workload.hpp"
#include "scale/async_shards.hpp"
#include "scale/shard_policy.hpp"
#include "sync/backoff.hpp"
#include "sync/cacheline.hpp"

namespace kpqbench {

struct cell_spec {
  std::string workload;
  std::uint64_t seed = 1;
  double warmup_s = 0.5;
  double measure_s = 1.0;
  std::uint32_t threads = workers;  // closed-loop workloads only
  std::uint64_t prefill = 1'000'000;  // fifty_deep only
  bool traced = false;
  std::vector<int> cpus;
  kpq::obs::tick_calibration cal;

  std::uint64_t ticks(double seconds) const noexcept {
    return static_cast<std::uint64_t>(seconds * cal.tick_hz);
  }
};

/// Counters the queue layers keep themselves (read after the run).
struct layer_counters {
  double ops = 0;  // operations the queue counted (per-op denominators)
  double helps = 0, link_cas_fail = 0, desc_cas_fail = 0;  // opt with stats
  double slow = 0;                                         // fps slow path
  double retired = 0, freed = 0, pending = 0;              // hazard pointers
};

template <typename Q>
void add_counters(Q& q, layer_counters& c) {
  if constexpr (requires { q.inner(); }) {
    add_counters(q.inner(), c);
  } else {
    if constexpr (requires { q.aggregate_counters(); }) {
      const auto a = q.aggregate_counters();
      c.ops += static_cast<double>(a.enq_ops + a.deq_ops);
      c.helps += static_cast<double>(a.helped_enq_completions +
                                     a.helped_deq_completions);
      c.link_cas_fail += static_cast<double>(a.link_cas_failures);
      c.desc_cas_fail += static_cast<double>(a.desc_cas_failures);
    }
    if constexpr (requires { q.aggregate_path_counters(); }) {
      const auto p = q.aggregate_path_counters();
      c.ops += static_cast<double>(p.ops());
      c.slow += static_cast<double>(p.slow_enqs + p.slow_deqs);
    }
    if constexpr (requires { q.reclaimer().pending_count(); }) {
      c.retired += static_cast<double>(q.reclaimer().retired_count());
      c.freed += static_cast<double>(q.reclaimer().freed_count());
      c.pending += static_cast<double>(q.reclaimer().pending_count());
    }
  }
}

struct cell_result {
  double setup_s = 0;
  std::vector<std::unique_ptr<thread_stats>> threads;
  failures fail;  // run-level verdicts (conservation, loss, ...)
  layer_counters counters;
  bool latency_is_item = false;  // workload latency = per item, not per call
  std::vector<std::pair<std::string, double>> diag;
};

/// Worker threads pinned to distinct CPUs and parked at a start gate. The
/// constructor returns once every worker is pinned and waiting, which ends
/// set-up. run() opens the gate and joins; destroying an unrun crew
/// releases the workers without running the body. Waiting blocks rather
/// than spins: a spinning pinned worker would starve the unpinned main
/// thread until the next scheduler tick and inflate set-up time.
class crew {
 public:
  template <typename Body>
  crew(const std::vector<int>& cpus, std::uint32_t n, Body body) {
    threads_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      threads_.emplace_back([this, i, cpu = cpus[i], body] {
        if (!pin_self(cpu)) misplaced_.fetch_add(1);
        ready_.fetch_add(1);
        ready_.notify_one();
        gate_.wait(0);
        if (gate_.load() != 1) return;
        body(i);
        if (sched_getcpu() != cpu) misplaced_.fetch_add(1);
      });
    }
    for (std::uint32_t r = ready_.load(); r < n; r = ready_.load()) {
      ready_.wait(r);
    }
  }
  crew(const crew&) = delete;
  crew& operator=(const crew&) = delete;
  ~crew() { open(2); }

  void run() { open(1); }
  std::uint64_t misplaced() const noexcept { return misplaced_.load(); }

 private:
  void open(int verdict) {
    int closed = 0;
    if (gate_.compare_exchange_strong(closed, verdict)) gate_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::atomic<int> gate_{0};  // 0 wait, 1 run, 2 leave
  std::atomic<std::uint32_t> ready_{0};
  std::atomic<std::uint64_t> misplaced_{0};
  std::vector<std::thread> threads_;
};

inline double seconds_since(std::uint64_t t_ns) {
  return static_cast<double>(kpq::now_ns() - t_ns) * 1e-9;
}

inline std::vector<std::unique_ptr<thread_stats>> make_stats(std::uint32_t n,
                                                             bool traced) {
  std::vector<std::unique_ptr<thread_stats>> v;
  for (std::uint32_t i = 0; i < n; ++i) {
    v.push_back(std::make_unique<thread_stats>(traced));
  }
  return v;
}

inline window open_window(const cell_spec& sp) {
  window w;
  w.start = tick_now();
  w.t0 = w.start + sp.ticks(sp.warmup_s);
  w.t1 = w.t0 + sp.ticks(sp.measure_s);
  return w;
}

/// Drains what is left in the queue after the run (oracle input).
template <typename Q>
tally drain(Q& q) {
  tally t;
  while (auto v = q.dequeue(0)) t.add(*v);
  return t;
}

/// Conservation oracle: everything enqueued was dequeued or drained.
inline void check_conservation(cell_result& r, tally prefilled,
                               const tally& drained) {
  tally in = prefilled, out = drained;
  for (const auto& t : r.threads) {
    in += t->enqueued;
    out += t->dequeued;
  }
  if (in.count != out.count || in.xor_sum != out.xor_sum) {
    ++r.fail.conservation;
  }
}

// ------------------------------------------------------ pairs / fifty_deep

/// Producer id of prefilled items: one past the workers.
inline constexpr std::uint32_t prefill_producer = workers;

/// Per-thread op sequence, one bit per op (1 = enqueue), generated from the
/// seed before the clock starts and replayed cyclically (2^23 ops for
/// fifty_deep; pairs is the fixed enqueue, dequeue alternation).
inline std::vector<std::uint64_t> op_bits(const cell_spec& sp,
                                          std::uint32_t tid) {
  if (sp.workload == "pairs") return {0x5555555555555555ULL};
  std::vector<std::uint64_t> words(std::size_t{1} << 17);
  kpq::fast_rng rng = kpq::thread_stream(sp.seed, tid);
  for (auto& w : words) w = rng.next();
  return words;
}

/// First sequence number of a thread's items: seeded, and never 0 so that
/// no item encodes to the value 0.
inline std::uint64_t first_seq(std::uint64_t seed, std::uint32_t tid) {
  return 1 + (kpq::hash64(seed ^ (0x9E37ULL * (tid + 1))) & 0x7fffffffULL);
}

template <typename Q>
void run_closed_loop(const cell_spec& sp, cell_result& r) {
  const bool fifty = sp.workload == "fifty_deep";
  std::vector<std::vector<std::uint64_t>> ops;
  for (std::uint32_t i = 0; i < sp.threads; ++i) ops.push_back(op_bits(sp, i));
  r.threads = make_stats(sp.threads, sp.traced);
  window w;
  tally prefilled;

  const std::uint64_t setup_start = kpq::now_ns();
  Q q(sp.threads);
  if (fifty) {
    for (std::uint64_t k = 1; k <= sp.prefill; ++k) {
      const std::uint64_t v = kpq::encode_value(prefill_producer, k);
      q.enqueue(v, 0);
      prefilled.add(v);
    }
  }
  crew team(sp.cpus, sp.threads, [&](std::uint32_t i) {
    thread_stats& ts = *r.threads[i];
    const std::vector<std::uint64_t>& bits = ops[i];
    const std::size_t mask = bits.size() - 1;
    std::uint64_t seq = first_seq(sp.seed, i);
    for (std::uint64_t k = 0;; ++k) {
      const bool enq = ((bits[(k >> 6) & mask] >> (k & 63)) & 1) != 0;
      std::uint64_t id = 0;
      const std::uint64_t s0 = tick_now();
      if (enq) {
        id = kpq::encode_value(i, seq++);
        q.enqueue(id, i);
      } else if (auto v = q.dequeue(i)) {
        id = *v;
      }
      const std::uint64_t s1 = tick_now();
      ++ts.attempted;
      if (enq) {
        ts.enqueued.add(id);
      } else if (id != 0) {
        ts.dequeued.add(id);
        if (!ts.order.admit(kpq::value_tid(id), kpq::value_seq(id))) {
          ++ts.fail.order;
        }
      } else {
        ++ts.fail.empty_deq;  // both workloads keep the queue non-empty
      }
      if (w.contains(s0)) {
        if (id != 0) ++ts.completed;
        if (enq) {
          ts.enq.add(s1 - s0);
        } else {
          ts.deq.add(s1 - s0);
          ++ts.deq_calls;
        }
      }
      ts.record(enq ? sp_enqueue : sp_dequeue, s0, s1, id);
      if (s1 >= w.t1) break;
    }
  });
  r.setup_s = seconds_since(setup_start);
  w = open_window(sp);
  team.run();
  r.fail.placement += team.misplaced();
  add_counters(q, r.counters);
  check_conservation(r, prefilled, drain(q));
}

// ------------------------------------------------------------- pipeline

inline constexpr double pipeline_rate_per_producer = 100'000;  // items/s

template <typename Q>
void run_pipeline(const cell_spec& sp, cell_result& r) {
  constexpr std::uint32_t producers = 2;
  r.latency_is_item = true;
  r.threads = make_stats(workers, sp.traced);
  const auto period = static_cast<std::uint64_t>(sp.cal.tick_hz /
                                                 pipeline_rate_per_producer);
  const std::uint64_t capacity = static_cast<std::uint64_t>(
      (sp.warmup_s + sp.measure_s) * pipeline_rate_per_producer) + 64;
  window w;
  std::array<std::uint64_t, producers> base{};  // due tick of item 1

  struct shared {
    std::array<kpq::padded<std::atomic<std::uint64_t>>, producers> produced{};
    std::array<kpq::padded<std::atomic<std::uint64_t>>, producers> delivered{};
    std::atomic<std::uint32_t> producers_done{0};
    std::array<std::vector<std::atomic<std::uint64_t>>, producers> seen;
    std::array<std::uint64_t, 2> last_delivery{};  // per consumer, ticks
  } sh;
  for (auto& v : sh.seen) {
    v = std::vector<std::atomic<std::uint64_t>>(capacity / 64 + 1);
  }
  auto due_of = [&](std::uint32_t p, std::uint64_t seq) {
    return base[p] + (seq - 1) * period;
  };
  // Marks item (p, seq) delivered; false if it already was.
  auto mark = [&](std::uint32_t p, std::uint64_t seq) {
    const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
    return (sh.seen[p][seq / 64].fetch_or(bit) & bit) == 0;
  };

  const std::uint64_t setup_start = kpq::now_ns();
  Q q(workers);
  crew team(sp.cpus, workers, [&](std::uint32_t i) {
    thread_stats& ts = *r.threads[i];
    if (i < producers) {
      std::uint64_t seq = 1;
      for (;; ++seq) {
        const std::uint64_t due = due_of(i, seq);
        if (due >= w.t1 || seq >= capacity) break;
        while (tick_now() < due) kpq::cpu_relax();
        const std::uint64_t id = kpq::encode_value(i, seq);
        const std::uint64_t s0 = tick_now();
        q.enqueue(id, i);
        const std::uint64_t s1 = tick_now();
        ++ts.attempted;
        ts.enqueued.add(id);
        sh.produced[i]->store(seq, std::memory_order_relaxed);
        if (w.contains(due)) ts.gen_late.add(s0 - due);
        if (w.contains(s0)) {
          ++ts.completed;
          ts.enq.add(s1 - s0);
        }
        ts.record(sp_enqueue, s0, s1, id);
      }
      sh.producers_done.fetch_add(1, std::memory_order_release);
      return;
    }
    const std::uint32_t c = i - producers;
    const std::uint64_t hard_stop = w.t1 + sp.ticks(2.0);
    std::uint64_t mine = 0;
    for (;;) {
      const std::uint64_t s0 = tick_now();
      const std::optional<std::uint64_t> v = q.dequeue(i);
      const std::uint64_t s1 = tick_now();
      ++ts.attempted;
      if (w.contains(s0)) {
        ++ts.deq_calls;
        ts.deq.add(s1 - s0);
        ++(v ? ts.completed : ts.empty);
      }
      ts.record(sp_dequeue, s0, s1, v.value_or(0));
      if (v) {
        const std::uint32_t p = kpq::value_tid(*v);
        const std::uint64_t seq = kpq::value_seq(*v);
        const std::uint64_t due = due_of(p, seq);
        if (w.contains(due)) ts.item.add(s1 > due ? s1 - due : 0);
        ts.dequeued.add(*v);
        if (!ts.order.admit(p, seq)) ++ts.fail.order;
        if (!mark(p, seq)) ++ts.fail.duplicate;
        sh.delivered[c]->store(++mine, std::memory_order_relaxed);
        sh.last_delivery[c] = s1;
        if (ts.ring) {
          std::uint64_t backlog = 0;
          for (std::uint32_t k = 0; k < producers; ++k) {
            backlog += sh.produced[k]->load(std::memory_order_relaxed);
            backlog -= sh.delivered[k]->load(std::memory_order_relaxed);
          }
          // Counters are read racily; a transiently negative sum wraps.
          if (backlog < capacity) {
            ts.backlog_max = std::max(ts.backlog_max, backlog);
          }
        }
        continue;
      }
      if (sh.producers_done.load(std::memory_order_acquire) == producers) {
        std::uint64_t made = 0, got = 0;
        for (std::uint32_t k = 0; k < producers; ++k) {
          made += sh.produced[k]->load(std::memory_order_relaxed);
          got += sh.delivered[k]->load(std::memory_order_relaxed);
        }
        if (got >= made) break;
      }
      if (s1 >= hard_stop) break;
    }
  });
  r.setup_s = seconds_since(setup_start);
  w = open_window(sp);
  for (std::uint32_t p = 0; p < producers; ++p) {
    // Seeded phase: where in its period each producer's schedule starts.
    base[p] = w.start + kpq::hash64(sp.seed ^ (p + 1)) % period;
  }
  team.run();
  r.fail.placement += team.misplaced();
  add_counters(q, r.counters);

  // Loss, duplication and drain-deadline oracles.
  tally drained;
  while (auto v = q.dequeue(0)) {
    drained.add(*v);
    ++r.fail.late_drain;  // consumers left items behind
    if (!mark(kpq::value_tid(*v), kpq::value_seq(*v))) ++r.fail.duplicate;
  }
  std::uint64_t last_due = 0;
  for (std::uint32_t p = 0; p < producers; ++p) {
    const std::uint64_t made = sh.produced[p]->load();
    if (made > 0) last_due = std::max(last_due, due_of(p, made));
    for (std::uint64_t seq = 1; seq <= made; ++seq) {
      const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
      if ((sh.seen[p][seq / 64].load() & bit) == 0) ++r.fail.lost;
    }
  }
  const std::uint64_t last = std::max(sh.last_delivery[0], sh.last_delivery[1]);
  if (last > last_due + sp.ticks(1.0)) ++r.fail.late_drain;
  check_conservation(r, {}, drained);
}

// --------------------------------------------------------------- broker

struct request {
  std::uint64_t id = 0;  // (session + 1) << 32 | round: unique per request
  std::uint64_t session = 0;
  std::uint64_t payload = 0;
  std::uint64_t response = 0;
  std::uint64_t posted = 0;  // tick the worker handed the reply back
  bool done = false;
  std::coroutine_handle<> h{};
};

struct session_key {
  std::uint64_t operator()(const request* r) const noexcept {
    return r->session;
  }
};

inline constexpr std::uint64_t echo_mask = 0x5a5a5a5a5a5a5a5aULL;
inline constexpr std::uint32_t broker_sessions = 256;
inline constexpr std::uint32_t broker_shards = 2;
inline constexpr std::uint32_t broker_workers = 2;

/// Span id of a queue item (flow arrows join spans with equal ids).
inline std::uint64_t item_id(std::uint64_t v) noexcept { return v; }
inline std::uint64_t item_id(const request* r) noexcept { return r->id; }

/// Queue adapter for the traced broker: times every call the async layer
/// makes into the core queue, so core.* metrics exist for the broker too.
template <typename Q>
class spanned {
 public:
  using value_type = typename Q::value_type;

  spanned(std::uint32_t max_threads, thread_stats* ts, const window* w)
      : q_(max_threads), ts_(ts), w_(w) {}

  void enqueue(value_type v, std::uint32_t tid) {
    const std::uint64_t s0 = tick_now();
    const std::uint64_t id = item_id(v);
    q_.enqueue(std::move(v), tid);
    const std::uint64_t s1 = tick_now();
    if (w_->contains(s0)) ts_->enq.add(s1 - s0);
    ts_->record(sp_enqueue, s0, s1, id);
  }
  std::optional<value_type> dequeue(std::uint32_t tid) {
    const std::uint64_t s0 = tick_now();
    std::optional<value_type> v = q_.dequeue(tid);
    const std::uint64_t s1 = tick_now();
    if (w_->contains(s0)) {
      ts_->deq.add(s1 - s0);
      ++ts_->deq_calls;
      if (!v) ++ts_->empty;
    }
    ts_->record(sp_dequeue, s0, s1, v ? item_id(*v) : 0);
    return v;
  }
  Q& inner() noexcept { return q_; }

 private:
  Q q_;
  thread_stats* ts_;
  const window* w_;
};

template <typename Q>
struct broker_state {
  using shards_type =
      kpq::async::async_sharded<Q, kpq::key_hash_shards<session_key>>;

  template <typename... Args>
  explicit broker_state(Args&&... args)
      : shards(broker_shards, std::forward<Args>(args)...),
        requests(broker_sessions) {
    shards.set_executor(&loop);
  }

  kpq::async::event_loop loop;
  shards_type shards;
  std::vector<request> requests;
  std::array<std::uint64_t, broker_shards> served{};
  std::uint32_t finished = 0;
};

template <typename State>
kpq::async::task<void> broker_session(State& b, thread_stats& ts,
                                      const window& w, std::uint64_t seed,
                                      request& r) {
  struct echo_awaiter {
    request* r;
    bool await_ready() const noexcept { return r->done; }
    void await_suspend(std::coroutine_handle<> h) noexcept { r->h = h; }
    std::uint64_t await_resume() const noexcept { return r->response; }
  };
  for (std::uint64_t round = 1;; ++round) {
    const std::uint64_t s0 = tick_now();
    if (s0 >= w.t1) break;
    r.id = ((r.session + 1) << 32) | round;
    r.payload = kpq::hash64(seed ^ r.id);
    r.done = false;
    (void)co_await b.shards.co_enqueue(&r);
    const std::uint64_t s1 = tick_now();
    ts.record(sp_co_enqueue, s0, s1, r.id);
    const std::uint64_t echoed = co_await echo_awaiter{&r};
    const std::uint64_t s2 = tick_now();
    ts.record(sp_session_resume, r.posted, s2, r.id);
    ++ts.attempted;
    ts.enqueued.add(r.id);
    if (echoed != (kpq::hash64(seed ^ r.id) ^ echo_mask)) ++ts.fail.echo;
    if (w.contains(s0)) {
      ++ts.completed;
      ts.item.add(s2 - s0);
    }
  }
  if (++b.finished == broker_sessions) b.shards.close_all();
}

template <typename State>
kpq::async::task<void> broker_worker(State& b, thread_stats& ts,
                                     const window& w) {
  for (std::uint64_t n = 1;; ++n) {
    const std::uint64_t s0 = tick_now();
    auto got = co_await b.shards.co_dequeue_any();
    const std::uint64_t s1 = tick_now();
    if (!got.value) co_return;
    request* r = *got.value;
    ++ts.attempted;
    ++b.served[got.index % broker_shards];
    ts.dequeued.add(r->id);
    if (w.contains(s0)) ++ts.completed;
    ts.record(sp_co_dequeue_any, s0, s1, r->id);
    r->response = r->payload ^ echo_mask;
    r->done = true;
    r->posted = tick_now();
    b.loop.post(r->h);
    // Cooperative chunking (docs/ASYNC.md §3): unwind the resume chain.
    if ((n & 0xff) == 0) co_await b.loop.yield();
  }
}

template <typename Q>
void run_broker(const cell_spec& sp, cell_result& r) {
  r.latency_is_item = true;
  r.threads = make_stats(1, sp.traced);
  thread_stats& ts = *r.threads[0];
  using state = broker_state<Q>;
  window w;
  const std::uint64_t setup_start = kpq::now_ns();
  std::unique_ptr<state> st;
  if constexpr (requires { &Q::inner; }) {
    st = std::make_unique<state>(workers, &ts, &w);
  } else {
    st = std::make_unique<state>(workers);
  }
  for (std::uint32_t i = 0; i < broker_sessions; ++i) {
    st->requests[i].session = i;
  }
  crew team(sp.cpus, 1, [&, &b = *st](std::uint32_t) {
    for (request& req : b.requests) {
      b.loop.spawn(broker_session(b, ts, w, sp.seed, req));
    }
    for (std::uint32_t k = 0; k < broker_workers; ++k) {
      b.loop.spawn(broker_worker(b, ts, w));
    }
    b.loop.run();
  });
  r.setup_s = seconds_since(setup_start);
  w = open_window(sp);
  team.run();
  r.fail.placement += team.misplaced();
  // Every request answered exactly once: what sessions submitted, workers
  // served (a lost request would leave its session, and the loop, hanging).
  if (ts.enqueued.count != ts.dequeued.count ||
      ts.enqueued.xor_sum != ts.dequeued.xor_sum) {
    ++r.fail.conservation;
  }

  double requests = 0;
  for (std::uint32_t i = 0; i < broker_shards; ++i) {
    add_counters(st->shards.shard(i).queue(), r.counters);
    requests += static_cast<double>(st->served[i]);
  }
  const auto lo = *std::min_element(st->served.begin(), st->served.end());
  const auto hi = *std::max_element(st->served.begin(), st->served.end());
  const kpq::async::loop_stats ls = st->loop.stats();
  double parks = 0, resume_ns = 0, resumes = 0;
  for (std::uint32_t i = 0; i < broker_shards; ++i) {
    const kpq::waiter_hub_stats hs = st->shards.shard(i).hub().stats();
    parks += static_cast<double>(hs.parks);
    resume_ns += static_cast<double>(hs.resume_ns_total);
    resumes += static_cast<double>(hs.resumes);
  }
  requests = std::max(requests, 1.0);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  r.diag = {
      {"scale.shard_skew", lo == 0 ? 0.0 : d(hi) / d(lo)},
      {"async.loop_resumes_per_req", d(ls.resumes) / requests},
      {"async.ready_lag_ns_mean", ls.mean_ready_lag_ns()},
      {"async.ready_lag_ns_max", d(ls.ready_lag_ns_max)},
      {"async.max_ready_depth", d(ls.max_ready_depth)},
      {"async.parks_per_req", parks / requests},
      {"async.hub_resume_ns_mean", resumes == 0 ? 0.0 : resume_ns / resumes},
  };
}

}  // namespace kpqbench
