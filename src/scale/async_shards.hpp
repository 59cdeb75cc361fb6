// async_sharded<Q, Policy>: the coroutine front-end over a set of shards —
// the scale layer's answer to "tens of thousands of suspended consumers
// over a handful of queues".
//
// It IS sharded_queue over async_mpmc<Q> shards: the same shard vector,
// policy routing (scale/shard_policy.hpp — key_hash keeps per-key FIFO
// system-wide, the session-lane guarantee the broker example relies on),
// synchronous enqueue/dequeue with the home-first steal scan, and per-shard
// counters (which count only those synchronous calls). This class adds the
// coroutine calls. co_enqueue routes like enqueue; co_dequeue_any
// multiplexes all shards with co_select's wait, the steal scan in
// coroutine form. A co_dequeue_any scan starts at the shard after the last
// one that served (a relaxed hint shared by all consumers), so a busy shard
// cannot starve the others and a drained one is not probed before every
// item; after a park, at the shard whose token woke it (see take_step in
// async/async_queue.hpp on token re-gifting).
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stop_token>
#include <utility>

#include "async/async_queue.hpp"
#include "async/task.hpp"
#include "scale/shard_policy.hpp"
#include "scale/sharded_queue.hpp"
#include "sync/thread_registry.hpp"

namespace kpq::async {

template <typename Q, typename Policy = kpq::affinity_shards>
class async_sharded : public kpq::sharded_queue<async_mpmc<Q>, Policy> {
  using base = kpq::sharded_queue<async_mpmc<Q>, Policy>;

 public:
  using typename base::value_type;
  using base::base;

  void set_executor(event_loop* loop) noexcept {
    for (const auto& s : this->shards()) s->set_executor(loop);
  }

  /// Route by policy now, on the calling thread, and return the shard's
  /// admission task (a bounded shard's policy decides) — no wrapper frame.
  task<bool> co_enqueue(value_type v) {
    const std::uint32_t s = this->enqueue_shard(this_thread_id(), v);
    return this->shard(s).co_enqueue(std::move(v));
  }

  /// Await an element from ANY shard (co_select multiplex, over the shard
  /// list in place rather than a copy), scanning from the shard after the
  /// last one that served. index in the result names the serving shard.
  task<select_result<value_type>> co_dequeue_any(std::stop_token st = {}) {
    return detail::take_any<Q, std::unique_ptr<async_mpmc<Q>>>(
        this->shards(), std::move(st), &next_scan_);
  }

  /// Close every shard: parked consumers drain, then complete empty.
  void close_all() {
    for (const auto& s : this->shards()) s->close();
  }

 private:
  std::atomic<std::size_t> next_scan_{0};  // co_dequeue_any's first shard
};

}  // namespace kpq::async
