// async_sharded<Q, Policy>: the coroutine front-end over a set of shards —
// the scale layer's answer to "tens of thousands of suspended consumers
// over a handful of queues".
//
// Unlike sharded_queue (one queue object, internal steal scan), this is a
// composition of N independent async_mpmc shards: enqueues route by the
// same pluggable shard policies (scale/shard_policy.hpp — key_hash keeps
// per-key FIFO system-wide, the session-lane guarantee the broker example
// relies on), and consumers multiplex all shards with co_select, which IS
// the steal scan in coroutine form. A co_dequeue_any scan starts at the
// shard after the last one that served (a relaxed hint shared by all
// consumers), so a busy shard cannot starve the others and a drained one
// is not probed before every item; after a park, at the shard whose token
// woke it (see take_step in async/async_queue.hpp on token re-gifting).
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stop_token>
#include <utility>
#include <vector>

#include "async/async_queue.hpp"
#include "async/task.hpp"
#include "scale/shard_policy.hpp"
#include "sync/thread_registry.hpp"

namespace kpq::async {

template <typename Q, typename Policy = kpq::affinity_shards>
class async_sharded {
 public:
  using value_type = typename Q::value_type;
  using shard_type = async_mpmc<Q>;
  using policy_type = Policy;

  /// Each shard's inner queue is constructed from the same `args` (they are
  /// reused, not forwarded — pass copyable configuration).
  template <typename... Args>
  explicit async_sharded(std::uint32_t shard_count, Args&&... args)
      : policy_(shard_count) {
    assert(shard_count > 0);
    shards_.reserve(shard_count);
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<shard_type>(args...));
    }
    ptrs_.reserve(shard_count);
    for (auto& s : shards_) ptrs_.push_back(s.get());
  }

  void set_executor(event_loop* loop) noexcept {
    for (auto& s : shards_) s->set_executor(loop);
  }

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  shard_type& shard(std::size_t i) noexcept { return *shards_[i]; }
  const std::vector<shard_type*>& shard_ptrs() const noexcept {
    return ptrs_;
  }

  /// Route by policy and enqueue synchronously (wait-free per shard).
  void enqueue(value_type v, std::uint32_t tid) {
    const std::uint32_t s = policy_.enqueue_shard(tid, v) % shard_count();
    shards_[s]->enqueue(std::move(v), tid);
  }
  void enqueue(value_type v) { enqueue(std::move(v), this_thread_id()); }

  /// Route by policy now, on the calling thread, and return the shard's
  /// admission task (a bounded shard's policy decides) — no wrapper frame.
  task<bool> co_enqueue(value_type v) {
    const std::uint32_t s =
        policy_.enqueue_shard(this_thread_id(), v) % shard_count();
    return shards_[s]->co_enqueue(std::move(v));
  }

  /// Await an element from ANY shard (co_select multiplex, over the shard
  /// list in place rather than a copy), scanning from the shard after the
  /// last one that served. index in the result names the serving shard.
  task<select_result<value_type>> co_dequeue_any(std::stop_token st = {}) {
    return detail::take_any<Q>(ptrs_, std::move(st), &next_scan_);
  }

  std::optional<value_type> try_dequeue(std::uint32_t tid) {
    const std::uint32_t home = policy_.home_shard(tid) % shard_count();
    for (std::uint32_t k = 0; k < shard_count(); ++k) {
      if (auto v = shards_[(home + k) % shard_count()]->try_dequeue(tid)) {
        return v;
      }
    }
    return std::nullopt;
  }

  /// Close every shard: parked consumers drain, then complete empty.
  void close_all() {
    for (auto& s : shards_) s->close();
  }

 private:
  Policy policy_;
  std::vector<std::unique_ptr<shard_type>> shards_;
  std::vector<shard_type*> ptrs_;
  std::atomic<std::size_t> next_scan_{0};  // co_dequeue_any's first shard
};

}  // namespace kpq::async
