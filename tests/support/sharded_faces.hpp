// The faces of the sharded front-end that the scale suites run their cases
// over as typed tests: sharded_queue itself, and async_sharded's
// synchronous face (sharded_queue over async_mpmc shards, on toolchains
// with coroutines).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "scale/shard_policy.hpp"
#include "scale/sharded_queue.hpp"
#if defined(__cpp_impl_coroutine)
#include "scale/async_shards.hpp"
#endif

namespace kpq::testing {

struct plain_face {
  template <typename Q, typename Policy>
  using front = sharded_queue<Q, Policy>;
};

#if defined(__cpp_impl_coroutine)
struct async_face {
  template <typename Q, typename Policy>
  using front = async::async_sharded<Q, Policy>;
};
using sharded_faces = ::testing::Types<plain_face, async_face>;
#else
using sharded_faces = ::testing::Types<plain_face>;
#endif

/// Names each typed instantiation after its front-end class.
struct face_name {
  template <typename Face>
  static std::string GetName(int) {
    return std::is_same_v<Face, plain_face> ? "sharded_queue" : "async_sharded";
  }
};

template <typename Face, typename Q, typename Policy = affinity_shards>
using sharded_front = typename Face::template front<Q, Policy>;

/// A shard's own queue: async_sharded wraps each one in an async_mpmc.
template <typename Shard>
auto& inner_of(Shard& shard) {
  if constexpr (requires { shard.hub(); }) {
    return shard.queue();
  } else {
    return shard;
  }
}

}  // namespace kpq::testing
