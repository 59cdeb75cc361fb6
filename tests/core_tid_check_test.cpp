// An out-of-range tid stops the program in every build type (NDEBUG
// included): it would otherwise index past the queue's per-thread arrays.
// So does a max_threads whose tids the head word cannot encode as claimers.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"

namespace kpq {
namespace {

template <typename Q>
class TidCheckDeathTest : public ::testing::Test {};
using CheckedQueues =
    ::testing::Types<wf_queue_opt<std::uint64_t>, wf_queue_fps<std::uint64_t>>;
TYPED_TEST_SUITE(TidCheckDeathTest, CheckedQueues);

TYPED_TEST(TidCheckDeathTest, OutOfRangeTidAbortsWithItsBounds) {
  TypeParam q(2);
  EXPECT_DEATH(q.enqueue(1, 2), "tid 2 out of range \\(max_threads 2\\)");
  EXPECT_DEATH((void)q.dequeue(7), "tid 7 out of range \\(max_threads 2\\)");
  // In range is untouched: the checks sit in front of every operation.
  q.enqueue(5, 1);
  EXPECT_EQ(q.dequeue(0), std::optional<std::uint64_t>(5));
}

TYPED_TEST(TidCheckDeathTest, UnencodableMaxThreadsAbortsWithTheLimit) {
  EXPECT_DEATH(TypeParam q(2048),
               "max_threads 2048 out of range \\(limit 2047\\)");
  EXPECT_DEATH(TypeParam q(~std::uint32_t{0}),
               "max_threads 4294967295 out of range");
}

}  // namespace
}  // namespace kpq
