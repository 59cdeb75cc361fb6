// C++20 concept pinning the MPMC queue interface every queue in this
// library satisfies. Generic code (async_mpmc, sharded_queue, the bench
// drivers, the examples) can constrain on this instead of duck typing.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>

namespace kpq {

template <typename Q>
concept mpmc_queue =
    requires(Q q, typename Q::value_type v, std::uint32_t tid) {
      typename Q::value_type;
      { q.enqueue(std::move(v), tid) };
      { q.dequeue(tid) } -> std::same_as<std::optional<typename Q::value_type>>;
    };

/// Queues that also expose the implicit-tid convenience overloads.
template <typename Q>
concept mpmc_queue_autotid =
    mpmc_queue<Q> && requires(Q q, typename Q::value_type v) {
      { q.enqueue(std::move(v)) };
      { q.dequeue() } -> std::same_as<std::optional<typename Q::value_type>>;
    };

}  // namespace kpq
