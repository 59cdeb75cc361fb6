// Allocation failure (DESIGN.md, "Allocation failure"): a node allocation
// that throws leaves the queue as it was. tests/support/fault_storage.hpp
// throws std::bad_alloc on the k-th alloc(); these tests sweep k over every
// allocation of single-thread scripts on base, opt and fps, and of one
// two-thread scenario under the baton explorer. After each throw: the
// exception reached the caller, no announce record is pending, the
// structural auditor passes, the size is unchanged (a multi-item step keeps
// exactly the items before the failing one), and every later operation
// succeeds with the FIFO history intact. The scripts run once more over
// freed (not recycled) nodes, so under AddressSanitizer the failure path
// touching a reclaimed node fails the test; the bounded queue passes the
// exception on without counting an admission.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/wf_queue.hpp"
#include "core/wf_queue_fps.hpp"
#include "storage/bounded_wf_queue.hpp"
#include "support/baton.hpp"
#include "support/fault_storage.hpp"
#include "support/whitebox.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"
#include "verify/queue_auditor.hpp"

namespace kpq {
namespace {

using testing::fault_storage;
using wb = testing::whitebox;

using u64 = std::uint64_t;
using base_q = wf_queue<u64, help_all, scan_max_phase, hp_domain, wf_options,
                        fault_storage<u64>>;
using opt_q = wf_queue<u64, help_one, fetch_add_phase, hp_domain, wf_options,
                       fault_storage<u64>>;
using fps_q = wf_queue_fps<u64, hp_domain, fps_options, fault_storage<u64>>;

/// "" if no record is pending and the auditor passes, else what failed.
template <typename Q>
std::string quiescent_problems(Q& q) {
  std::string out;
  for (std::uint32_t i = 0; i < q.max_threads(); ++i) {
    if (wb::state(q, i).pending) {
      out += "record " + std::to_string(i) + " pending\n";
    }
  }
  auto view = wb::view(q);
  view.allow_anonymous_enqueuers = Q::has_fast_path;
  const audit_result r = audit_quiescent(view);
  if (!r.ok) out += r.to_string();
  return out;
}

// ------------------------------------------------ single-thread scripts

/// One script step: enqueue `items` one by one, or dequeue when `items` is
/// empty.
struct step {
  std::vector<u64> items;
};

const std::vector<step> kScript = {
    {{1}}, {{2}}, {}, {{3, 4, 5}}, {}, {{6}}, {{7, 8}}, {}, {}, {{9}}, {}};

/// Runs kScript on a fresh queue whose k-th allocation fails (k == 0: none)
/// and checks every step against a FIFO model; `allocs` receives the
/// allocations the run made. A failing multi-item step allocates none of the
/// items after the failing one.
template <typename Q>
void run_script(u64 k, u64& allocs) {
  Q q(2);
  q.storage().fail_on_alloc(k);
  std::deque<u64> model;
  int throws = 0;
  for (std::size_t s = 0; s < kScript.size(); ++s) {
    SCOPED_TRACE("k " + std::to_string(k) + ", step " + std::to_string(s));
    const auto tid = static_cast<std::uint32_t>(s % 2);
    const std::vector<u64>& items = kScript[s].items;
    if (items.empty()) {
      const std::optional<u64> v = q.dequeue(tid);
      ASSERT_EQ(v.has_value(), !model.empty());
      if (v.has_value()) {
        EXPECT_EQ(*v, model.front());
        model.pop_front();
      }
      continue;
    }
    const std::size_t size0 = q.unsafe_size();
    const u64 allocs0 = q.storage().allocs();
    try {
      for (u64 v : items) {
        q.enqueue(v, tid);
        model.push_back(v);
      }
    } catch (const std::bad_alloc&) {
      ++throws;
      // Items before the failing allocation went in, in order, and the loop
      // pushed them to the model; the rest did not.
      const auto kept = static_cast<std::size_t>(k - allocs0 - 1);
      EXPECT_EQ(q.unsafe_size(), size0 + kept);
      EXPECT_EQ(quiescent_problems(q), "");
    }
    EXPECT_EQ(q.unsafe_size(), model.size());
  }
  EXPECT_EQ(throws, k == 0 ? 0 : 1) << "k " << k;
  while (auto v = q.dequeue(0)) {
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(*v, model.front());
    model.pop_front();
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(quiescent_problems(q), "");
  allocs = q.storage().allocs();
}

template <typename Q>
void sweep_script() {
  u64 total = 0;
  run_script<Q>(0, total);
  ASSERT_EQ(total, 9u);  // one allocation per enqueued item
  for (u64 k = 1; k <= total; ++k) {
    u64 allocs = 0;
    run_script<Q>(k, allocs);
    EXPECT_GE(allocs, k);
  }
}

TEST(AllocFailure, ScriptOnBaseLeavesQueueUnchanged) { sweep_script<base_q>(); }
TEST(AllocFailure, ScriptOnOptLeavesQueueUnchanged) { sweep_script<opt_q>(); }
TEST(AllocFailure, ScriptOnFpsLeavesQueueUnchanged) { sweep_script<fps_q>(); }

TEST(AllocFailure, ScriptOnBaseWithFreedNodesLeavesQueueUnchanged) {
  sweep_script<testing::freeing_base<u64>>();
}
TEST(AllocFailure, ScriptOnOptWithFreedNodesLeavesQueueUnchanged) {
  sweep_script<testing::freeing_opt<u64>>();
}
TEST(AllocFailure, ScriptOnFpsWithFreedNodesLeavesQueueUnchanged) {
  sweep_script<testing::freeing_fps<u64>>();
}

// ------------------------------------------------------- bounded queue

TEST(AllocFailure, BoundedQueuePropagatesWithoutAdmitting) {
  // Admission is decided before the inner queue allocates. A failing
  // allocation reaches try_enqueue's caller, counts neither an admission nor
  // a rejection, charges no bytes, and the next enqueue goes in.
  bounded_wf_queue<u64, opt_q> q(2, {.max_bytes = std::size_t{1} << 20});
  ASSERT_TRUE(q.try_enqueue(1, 0));
  const std::int64_t live0 = q.live_bytes();
  q.storage().fail_on_alloc(1);
  EXPECT_THROW((void)q.try_enqueue(2, 0), std::bad_alloc);
  EXPECT_EQ(q.stats().admitted, 1u);
  EXPECT_EQ(q.stats().rejected, 0u);
  EXPECT_EQ(q.live_bytes(), live0);
  EXPECT_EQ(q.unsafe_size(), 1u);
  EXPECT_EQ(quiescent_problems(q.inner()), "");

  ASSERT_TRUE(q.try_enqueue(3, 1));
  EXPECT_EQ(q.stats().admitted, 2u);
  EXPECT_EQ(q.dequeue(1), std::optional<u64>{1});
  EXPECT_EQ(q.dequeue(0), std::optional<u64>{3});
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_EQ(quiescent_problems(q.inner()), "");
}

// ------------------------------------------- two threads, every schedule

using explored_q =
    wf_queue<u64, help_one, fetch_add_phase, testing::eager_hp_domain,
             testing::baton_options, fault_storage<u64>>;

TEST(AllocFailure, ExplorerTwoThreadsEveryScheduleEveryAllocation) {
  // Worker 0 enqueues 100 then dequeues, worker 1 enqueues 200, on a queue
  // prefilled with 1000 by tid 2: two allocations per run, and every
  // schedule within the preemption bound runs with each one failing.
  const std::vector<testing::program> progs = {
      {{true, 100}, {false}}, {{true, 200}}};
  testing::baton b(2);
  for (u64 k = 1; k <= 2; ++k) {
    const testing::explore_report r = testing::explore(
        b, /*preemption_bound=*/2, [&](testing::chooser& c) -> std::string {
          explored_q q(3);
          std::vector<op_event> h = testing::prefill(q, 1, 2);
          q.storage().fail_on_alloc(k);
          std::vector<std::vector<op_event>> logs(progs.size());
          std::vector<int> throws(progs.size(), 0);
          b.run(
              [&](std::uint32_t w) {
                for (const testing::op_spec& op : progs[w]) {
                  const u64 inv = 2 + b.stamp();
                  if (op.is_enq) {
                    try {
                      q.enqueue(op.value, w);
                    } catch (const std::bad_alloc&) {
                      ++throws[w];  // never happened: not in the history
                      continue;
                    }
                    logs[w].push_back(
                        {op_kind::enq, true, w, op.value, inv, 2 + b.stamp()});
                  } else {
                    const std::optional<u64> v = q.dequeue(w);
                    logs[w].push_back({op_kind::deq, v.has_value(), w,
                                       v.value_or(0), inv, 2 + b.stamp()});
                  }
                }
              },
              c);
          if (throws[0] + throws[1] != 1) return "expected exactly one throw";
          if (std::string p = quiescent_problems(q); !p.empty()) return p;
          for (auto& l : logs) h.insert(h.end(), l.begin(), l.end());
          testing::drain(q, 2, &h);
          return lin_checker::is_linearizable(h) ? ""
                                                 : "non-linearizable history";
        });
    EXPECT_EQ(r.failure, "") << "k " << k;
    EXPECT_GT(r.schedules, 100u) << "k " << k;
  }
}

}  // namespace
}  // namespace kpq
