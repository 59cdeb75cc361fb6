// Step machines: the KP queue's operations re-expressed as explicit
// sequences of primitive atomic actions (publish / link CAS / finish-enq /
// stage-0 CAS / deqTid claim / finish-deq), advanced one action per step()
// call from a single OS thread. A scheduler that picks which machine steps
// next has total control over the interleaving — the exhaustive explorer
// (core_interleave_test) enumerates all schedules, the fuzzer
// (core_random_schedule_test) samples long random ones.
//
// Soundness: every step is a sequence of the same atomics the real
// algorithm performs, executed without interleaving inside one step. The
// schedules explored are therefore a subset of real executions (coarser
// granularity can only hide bugs, never invent them), so any violation
// found here is a real algorithm bug.
//
// The machines are templates over the queue type so the same driver checks
// every storage/reclaimer variant (notably segment_storage, see
// core_random_schedule_test). Machines hold raw node pointers ACROSS steps
// without a hazard guard, so the queue's reclaimer must not free memory
// mid-run: hp_domain qualifies in practice (its scan threshold exceeds any
// test's retirement count), and segment variants must use leaky_domain —
// segment retirement scans eagerly and would otherwise recycle a segment a
// machine still points into. (The real-thread stress tests cover eager
// segment reclamation; here the subject is the interleaving space.)
//
// Requires tests/support/whitebox.hpp in the same translation unit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/wf_queue.hpp"
#include "support/whitebox.hpp"
#include "verify/history.hpp"

namespace kpq::testing {

using sm_queue = wf_queue_base<std::uint64_t>;
using sm_node = sm_queue::node_type;
using sm_desc = sm_queue::desc_type;

/// One logical operation advanced one primitive action per step() call.
template <typename Q>
class basic_machine {
 public:
  virtual ~basic_machine() = default;
  virtual bool step(Q& q) = 0;  // true once the operation completed
  bool done = false;
  std::uint64_t inv = 0, res = 0;  // step indexes for history checking
};

template <typename Q>
class basic_enq_machine : public basic_machine<Q> {
  using node_t = typename Q::node_type;
  using desc_t = typename Q::desc_type;

 public:
  basic_enq_machine(std::uint32_t tid, std::uint64_t value)
      : tid_(tid), value_(value) {}

  bool step(Q& q) override {
    using wb = whitebox;
    switch (pc_) {
      case 0: {  // publish (paper lines 62-63)
        const std::int64_t phase = wb::max_phase(q, tid_) + 1;
        node_t* n =
            wb::make_node(q, value_, static_cast<std::int32_t>(tid_), tid_);
        wb::publish(q, tid_, phase, true, true, n);
        pc_ = 1;
        return false;
      }
      case 1: {  // one iteration of the link loop (lines 68-82)
        desc_t* d = wb::state(q, tid_);
        if (!d->pending) {
          pc_ = 2;
          return false;
        }
        node_t* last = wb::tail(q);
        node_t* next = last->next.load();
        if (next == nullptr) {
          node_t* expected = nullptr;
          last->next.compare_exchange_strong(expected, d->node);  // line 74
        } else {
          wb::help_finish_enq(q, tid_);  // line 80
        }
        return false;  // pending check routes us out next step
      }
      case 2: {  // finish (lines 65 / 75)
        wb::help_finish_enq(q, tid_);
        if (wb::state(q, tid_)->pending) {
          pc_ = 1;
          return false;
        }
        return true;
      }
    }
    return true;
  }

 private:
  std::uint32_t tid_;
  std::uint64_t value_;
  int pc_ = 0;
};

template <typename Q>
class basic_deq_machine : public basic_machine<Q> {
  using node_t = typename Q::node_type;
  using desc_t = typename Q::desc_type;

 public:
  explicit basic_deq_machine(std::uint32_t tid) : tid_(tid) {}

  std::optional<std::uint64_t> result;

  bool step(Q& q) override {
    using wb = whitebox;
    switch (pc_) {
      case 0: {  // publish (lines 99-100)
        const std::int64_t phase = wb::max_phase(q, tid_) + 1;
        wb::publish(q, tid_, phase, true, false, nullptr);
        pc_ = 1;
        return false;
      }
      case 1: {  // one iteration of the help_deq loop (lines 110-138)
        desc_t* d = wb::state(q, tid_);
        if (!d->pending) {
          pc_ = 3;
          return false;
        }
        node_t* first = wb::head(q);
        node_t* last = wb::tail(q);
        node_t* next = first->next.load();
        if (first != wb::head(q)) return false;
        if (first == last) {
          if (next == nullptr) {  // empty (lines 116-121)
            desc_t* fresh = wb::make_desc(q, tid_, d->phase, false, false,
                                          static_cast<node_t*>(nullptr));
            wb::swap_state(q, tid_, tid_, d, fresh);
          } else {
            wb::help_finish_enq(q, tid_);  // line 123
          }
          return false;
        }
        if (d->node != first) {  // stage 0 (lines 129-133)
          desc_t* fresh = wb::make_desc(q, tid_, d->phase, true, false, first);
          if (!wb::swap_state(q, tid_, tid_, d, fresh)) return false;
        }
        claimed_ = first;
        pc_ = 2;
        return false;
      }
      case 2: {  // stage 1: the deqTid claim (line 135)
        std::int32_t expected = no_tid;
        claimed_->deq_tid.compare_exchange_strong(
            expected, static_cast<std::int32_t>(tid_));
        pc_ = 21;
        return false;
      }
      case 21: {  // stages 2-3 (line 136)
        wb::help_finish_deq(q, tid_);
        pc_ = wb::state(q, tid_)->pending ? 1 : 3;
        return false;
      }
      case 3: {  // read the outcome (lines 102-107)
        wb::help_finish_deq(q, tid_);
        desc_t* d = wb::state(q, tid_);
        if (d->node != nullptr) result = d->value;
        return true;
      }
    }
    return true;
  }

 private:
  std::uint32_t tid_;
  node_t* claimed_ = nullptr;
  int pc_ = 0;
};

// Concrete types for the default queue, so existing tests keep their names.
using machine = basic_machine<sm_queue>;
using enq_machine = basic_enq_machine<sm_queue>;
using deq_machine = basic_deq_machine<sm_queue>;

struct op_spec {
  bool is_enq;
  std::uint32_t tid;
  std::uint64_t value;  // enq only
};

template <typename Q>
std::unique_ptr<basic_machine<Q>> build_machine_for(const op_spec& s) {
  if (s.is_enq) return std::make_unique<basic_enq_machine<Q>>(s.tid, s.value);
  return std::make_unique<basic_deq_machine<Q>>(s.tid);
}

inline std::unique_ptr<machine> build_machine(const op_spec& s) {
  return build_machine_for<sm_queue>(s);
}

}  // namespace kpq::testing
