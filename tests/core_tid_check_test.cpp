// An out-of-range tid stops the program in every build type (NDEBUG
// included): it would otherwise index past the queue's per-thread arrays.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

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
  if constexpr (!TypeParam::has_fast_path) {  // the bulk forms
    std::vector<std::uint64_t> out;
    const std::uint64_t in[] = {1, 2};
    EXPECT_DEATH(q.enqueue_bulk(in, in + 2, 2), "tid 2 out of range");
    EXPECT_DEATH((void)q.dequeue_bulk(out, 1, 3), "tid 3 out of range");
  }
  // In range is untouched: the checks sit in front of every operation.
  q.enqueue(5, 1);
  EXPECT_EQ(q.dequeue(0), std::optional<std::uint64_t>(5));
}

}  // namespace
}  // namespace kpq
