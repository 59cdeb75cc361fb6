// Shared white-box driver for the KP queue tests (scenario replays,
// structural audits, layout and recycling checks). kpq::testing::whitebox is
// declared as a friend by wf_queue; this header provides its one definition
// for test targets. Include it from at most one .cpp per binary.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/wf_queue.hpp"
#include "verify/queue_auditor.hpp"

namespace kpq::testing {

struct whitebox {
  template <typename Q>
  static typename Q::node_type* head(Q& q) {
    return q.head_.word().node;
  }
  /// The tid whose dequeue claims the head, or no_tid.
  template <typename Q>
  static std::int32_t claimer(Q& q) {
    return q.head_.word().claimer;
  }
  /// Stage 1 (paper line 135) for thread `tid`: CAS the head word from
  /// {sentinel, none} to {sentinel, tid}. False if a claim stands.
  template <typename Q>
  static bool claim(Q& q, std::uint32_t tid) {
    typename Q::node_type* first = head(q);
    return q.head_.cas({first, no_tid},
                       {first, static_cast<std::int32_t>(tid)});
  }
  template <typename Q>
  static typename Q::node_type* tail(Q& q) {
    return q.tail_.load();
  }
  /// Thread i's announce record: {version, pending, enqueue, node, phase}.
  template <typename Q>
  static record_snapshot<typename Q::node_type> state(Q& q, std::uint32_t i) {
    return q.state_[i]->snapshot();
  }
  template <typename Q>
  static typename Q::node_type* make_node(Q& q, std::uint64_t v,
                                          std::int32_t etid,
                                          std::uint32_t alloc_tid = 0) {
    return q.alloc_node(alloc_tid, v, etid);
  }
  template <typename Q>
  static std::int64_t max_phase(Q& q, std::uint32_t tid) {
    auto g = q.reclaim_.enter(tid);
    return q.max_phase(g, tid);
  }
  /// Draw thread `tid`'s next phase through the queue's phase policy, as
  /// an announcing operation does.
  template <typename Q>
  static std::int64_t next_phase(Q& q, std::uint32_t tid) {
    auto g = q.reclaim_.enter(tid);
    return q.next_phase(tid, g);
  }
  /// Install an arbitrary record value for thread `tid` (replays and
  /// audits): the phase, then {pending, enq, node} under the next version.
  /// Unlike the owner's publish it may overwrite a pending record.
  template <typename Q>
  static void publish(Q& q, std::uint32_t tid, std::int64_t phase,
                      bool pending, bool enq, typename Q::node_type* node) {
    auto& r = q.state_[tid].get();
    r.phase.store(phase, std::memory_order_seq_cst);
    const auto cur = r.word();
    r.cas(cur, cur.next(pending, enq, node));
  }
  /// A helper's step on thread `tid`'s record, through the queue's own
  /// swap_record: {pending, node} under the next version. Returns whether
  /// the CAS won (it loses only to a concurrent change).
  template <typename Q>
  static bool swap_record(Q& q, std::uint32_t tid, std::uint32_t my,
                          bool pending, typename Q::node_type* node) {
    return q.swap_record(tid, my, q.state_[tid]->word(), pending, node)
        .has_value();
  }
  /// Announce an enqueue on the slow path and help it to completion,
  /// skipping any fast path.
  template <typename Q>
  static void announce_enq(Q& q, std::uint32_t tid,
                           typename Q::value_type v) {
    auto g = q.reclaim_.enter(tid);
    typename Q::node_type* node =
        q.alloc_node(tid, std::move(v), static_cast<std::int32_t>(tid));
    q.announce_enq(tid, q.next_phase(tid, g), node, g);
  }
  /// Announce a dequeue on the slow path, skipping any fast path.
  template <typename Q>
  static std::optional<typename Q::value_type> announce_deq(Q& q,
                                                            std::uint32_t tid) {
    auto g = q.reclaim_.enter(tid);
    return q.announce_deq(tid, q.next_phase(tid, g), g);
  }
  template <typename Q>
  static void help_finish_enq(Q& q, std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    q.help_finish_enq(my, g);
  }
  template <typename Q>
  static void help_finish_deq(Q& q, std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    q.help_finish_deq(my, g);
  }
  template <typename Q>
  static void help_enq(Q& q, std::uint32_t tid, std::int64_t ph,
                       std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    q.help_enq(tid, ph, g, my);
  }
  template <typename Q>
  static void help_deq(Q& q, std::uint32_t tid, std::int64_t ph,
                       std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    q.help_deq(tid, ph, g, my);
  }

  /// Addresses of the words whose cache-line placement the layout
  /// regression pins: the two written hot words and the vector headers
  /// every operation reads. fps adds its per-thread cells' header.
  template <typename Q>
  static std::vector<std::pair<const char*, const void*>> hot_words(
      const Q& q) {
    std::vector<std::pair<const char*, const void*>> w = {
        {"head_", &q.head_}, {"tail_", &q.tail_}, {"state_", &q.state_}};
    if constexpr (Q::has_fast_path) w.emplace_back("cells_", &q.cells_);
    return w;
  }

  /// Snapshot for the structural auditor (quiescence required).
  template <typename Q>
  static audit_view<typename Q::node_type> view(Q& q) {
    audit_view<typename Q::node_type> v;
    v.head = head(q);
    v.claimer = claimer(q);
    v.tail = q.tail_.load();
    v.max_threads = q.max_threads();
    for (std::uint32_t i = 0; i < q.max_threads(); ++i) {
      v.state.push_back(state(q, i));
    }
    return v;
  }
};

}  // namespace kpq::testing
