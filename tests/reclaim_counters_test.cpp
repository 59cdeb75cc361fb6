// The reclaimers' statistics and callback-thread contract
// (reclaim/reclaimer_concepts.hpp), typed over both domains, hazard
// pointers also with a scan on every retirement:
//   * retired_count(), freed_count() and pending_count() sum per-thread
//     cells and are exact at quiescence;
//   * a retire callback runs on the thread that retired its object, or at
//     quiescence in the domain's destructor — the property that lets
//     heap_node_storage recycle nodes on owner-local free lists.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "reclaim/hazard_pointers.hpp"
#include "reclaim/leaky.hpp"
#include "support/baton.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq {
namespace {

/// One retired object: who retired it, where (and how often) its callback
/// ran. Each field has one writer, and the test reads them after a join.
struct record {
  std::thread::id retired_by;
  std::thread::id freed_on;
  int frees = 0;
};

void note_free(void* /*ctx*/, void* p) {
  auto* r = static_cast<record*>(p);
  r->freed_on = std::this_thread::get_id();
  ++r->frees;
}

template <typename D>
class ReclaimCounters : public ::testing::Test {};

using Domains =
    ::testing::Types<hp_domain, testing::eager_hp_domain, leaky_domain>;
TYPED_TEST_SUITE(ReclaimCounters, Domains);

constexpr std::uint32_t kThreads = 4;
constexpr std::uint32_t kPerThread = 2000;

TYPED_TEST(ReclaimCounters, CountsAreExactAndCallbacksRunOnTheRetiringThread) {
  std::vector<record> recs(kThreads * kPerThread);
  auto d = std::make_unique<TypeParam>(kThreads, 1);
  spin_barrier start(kThreads);
  std::vector<std::thread> ts;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      start.arrive_and_wait();
      record* prev = nullptr;
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        record* r = &recs[t * kPerThread + i];
        r->retired_by = std::this_thread::get_id();
        // Announce the previous retirement while retiring this one, so the
        // hazard-pointer scans keep some items pending across passes.
        auto g = d->enter(t);
        std::atomic<record*> prev_src{prev};
        if (prev != nullptr) g.protect(0, prev_src);
        d->retire(t, r, &note_free, nullptr);
        prev = r;
      }
    });
  }
  for (auto& th : ts) th.join();

  // Quiescent: the sums are exact.
  const std::uint64_t retired = d->retired_count();
  EXPECT_EQ(retired, std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(d->freed_count() + d->pending_count(), retired);
  if constexpr (std::is_same_v<TypeParam, leaky_domain>) {
    EXPECT_EQ(d->freed_count(), 0u);
  } else {
    EXPECT_GT(d->freed_count(), 0u) << "no reclamation happened";
  }

  std::uint64_t ran = 0;
  for (const record& r : recs) {
    if (r.frees == 0) continue;
    ++ran;
    EXPECT_EQ(r.frees, 1);
    EXPECT_EQ(r.freed_on, r.retired_by)
        << "a callback ran on a thread other than the retiring one";
  }
  EXPECT_EQ(ran, d->freed_count());

  // The destructor runs every remaining callback, once, on this thread.
  d.reset();
  for (const record& r : recs) {
    EXPECT_EQ(r.frees, 1);
    if (r.freed_on != r.retired_by) {
      EXPECT_EQ(r.freed_on, std::this_thread::get_id());
    }
  }
}

}  // namespace
}  // namespace kpq
