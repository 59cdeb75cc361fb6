// The Kogan–Petrank wait-free MPMC FIFO queue (PPoPP 2011), ported from the
// paper's Java listing (Figures 1, 2, 4, 6) to unmanaged C++20.
//
// Scheme (paper §3.1): every operation picks a monotonically growing *phase*,
// announces the operation in its per-thread `state` record, and then helps
// every pending operation whose phase is <= its own. Each operation is
// split into three atomic steps so helpers can share the work without
// applying anything twice:
//
//   enqueue: (1) append node at list end      [linearization, line 74]
//            (2) flip owner's pending->false  [line 93]
//            (3) swing tail                   [line 94]
//   dequeue: (0) point owner's state at the current sentinel   [line 131]
//            (1) claim head: {first, none} -> {first, tid}      [lin., 135]
//            (2) flip owner's pending->false                   [line 149]
//            (3) swing head: {first, tid} -> {next, none}       [line 150]
//
// The thread whose link or claim CAS wins runs steps 2 and 3 itself, on the
// record word it linked or claimed for; any other thread that finds a
// dangling node or a claimed head finishes it via help_finish_*.
//
// C++ port (docs/ALGORITHM.md §2 has the arguments):
//   * Hazard pointers protect every node dereference and every node a CAS
//     compares against or installs: a pinned pointer cannot be freed, hence
//     cannot be reallocated, hence the CAS cannot succeed spuriously.
//   * The paper publishes an immutable descriptor per state change because
//     Java has no versioned in-place update. Here `state[i]` is an in-place
//     announce record (core/announce_record.hpp): a 16-byte word whose
//     version grows with every CAS, so a transition keeps the identity a
//     fresh descriptor gave it while nothing is allocated, protected or
//     retired for it. Helpers CAS only pending records; the owner publishes
//     from its own completed one.
//   * A completed dequeue's record names the node holding its item, and the
//     owner copies the value out of that node (§3.4 copies it into the
//     descriptor instead). The hazard domain treats every node a record
//     names as announced (hp_domain::set_roots), so the node outlives the
//     owner's read.
//   * The paper's per-node deqTid moved into the head: `head_` is one
//     8-byte word {sentinel, claimer} (core/wf_node.hpp), so step 1 is a
//     CAS on the word step 3 writes anyway, and a helper reads the claim
//     without dereferencing the sentinel.
//
// Progress: enqueue/dequeue complete in O(n) steps plus helping (bounded by
// the doorway argument, paper §5.3) — wait-free under both reclaimers: no
// hazard-pointer protect, retire or scan waits for another thread
// (reclaim/hazard_pointers.hpp), and leaky never frees.
//
// Fast path (Options::fast_path): the default no_fast_path runs the scheme
// above for every operation; ms_fast_path (below) puts bounded Michael–Scott
// attempts in front of it, and wf_queue_fps.hpp names that configuration.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/announce_record.hpp"
#include "core/help_policy.hpp"
#include "core/phase_policy.hpp"
#include "core/wf_node.hpp"
#include "harness/mem_tracker.hpp"
#include "obs/trace_ring.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/reclaimer_concepts.hpp"
#include "storage/heap_node_storage.hpp"
#include "storage/storage_concepts.hpp"
#include "sync/cacheline.hpp"
#include "sync/owner_cell.hpp"
#include "sync/thread_registry.hpp"

namespace kpq {

namespace testing {
/// White-box access for the deterministic scenario tests that replay the
/// paper's Figures 3 and 5 step by step (defined in the test target only).
struct whitebox;
}  // namespace testing

/// What a queue step is about to do: one value per class of shared access.
/// Options::hooks::sched_point(tid, site) runs just before each such step
/// (tid is the thread taking it), so one call is one step of the
/// per-operation bound. The interleaving explorer (tests/support/baton.hpp)
/// hands the CPU to another thread there; the progress tests freeze a
/// helper at its first `state` step after a winning link.
enum class sched_site : std::uint8_t {
  protect,  // hazard-protected read of the head word, tail_ or next
  load,     // seq_cst re-read of the head word or tail_, next, a record
  link,     // CAS on a node's next field (enqueue linearization)
  swing,    // CAS on tail_, or on the head word {first, tid} -> {next, none}
  claim,    // CAS on an unclaimed head word {first, none} (dequeue
            // linearization): a slow claim -> {first, tid}, or a fast
            // dequeue's whole step -> {next, none}
  state,    // CAS on a record's word (publish or helper step)
  phase,    // the phase draw
  retire,   // hand a node to the reclaimer (may scan)
};

/// What thread `tid` just did: Options::hooks::event(tid, e, phase, aux)
/// runs after it, touches no shared state and is not a step
/// (docs/ALGORITHM.md §4.3). 0-7 keep their obs::trace_kind numbers.
enum class wf_event : std::uint8_t {
  enq_publish = 0,   // enqueue announced, none of it run; phase = its phase
  enq_complete = 1,  // enqueue returns; phase = its phase
  deq_publish = 2,   // dequeue announced, none of it run; phase = its phase
  deq_complete = 3,  // dequeue returns; phase = its phase, aux = 1 if an item
  help_start = 4,    // starts on a peer's operation; phase = its, aux = peer
  help_finish = 5,   // done with that operation; phase = its, aux = peer
  retire = 7,        // won a head swing, retires the old sentinel
  enq_done_for,      // won an enqueue's step 2; aux = the operation's owner
  deq_done_for,      // won a dequeue's step 2; aux = the operation's owner
  link_lost,         // lost a slow-path link CAS
  record_lost,       // lost a record CAS (stage 0 or step 2)
  fast_attempt,      // one fast-path attempt begins (ms_fast_path)
};

/// The hook interface, and the default hook: both calls fold away. Every
/// hook derives from it and hides what it uses; a queue owns its hook, built
/// from max_threads when the type takes it (make_hook).
struct no_hooks {
  static void sched_point(std::uint32_t /*tid*/, sched_site /*site*/) {}
  static void event(std::uint32_t /*tid*/, wf_event /*e*/,
                    std::int64_t /*phase*/, std::uint32_t /*aux*/) {}
};

template <typename H>
H make_hook(std::uint32_t n) {
  if constexpr (std::is_constructible_v<H, std::uint32_t>) {
    return H(n);
  } else {
    return H{};
  }
}

/// Per-thread operation counters (kept by wf_stats). The interesting derived
/// quantity is the *helping rate*: how many operations were completed by a
/// thread other than their owner — the dynamic behind the paper's Figure 9
/// discussion of helping pile-ups.
struct wf_counters {
  std::uint64_t enq_ops = 0;
  std::uint64_t deq_ops = 0;
  std::uint64_t empty_deqs = 0;
  /// Completion-step CASes this thread won for ANOTHER thread's operation.
  std::uint64_t helped_enq_completions = 0;
  std::uint64_t helped_deq_completions = 0;
  /// Link/claim CASes lost to a concurrent helper (wasted attempts).
  std::uint64_t link_cas_failures = 0;
  /// Record CASes (stage 0 or completion) lost to a concurrent helper. The
  /// name predates the in-place records; exporters read it as is.
  std::uint64_t desc_cas_failures = 0;

  wf_counters& operator+=(const wf_counters& o) {
    enq_ops += o.enq_ops;
    deq_ops += o.deq_ops;
    empty_deqs += o.empty_deqs;
    helped_enq_completions += o.helped_enq_completions;
    helped_deq_completions += o.helped_deq_completions;
    link_cas_failures += o.link_cas_failures;
    desc_cas_failures += o.desc_cas_failures;
    return *this;
  }
};

/// Hook: wf_counters per thread, counted from events. Owner-thread-only
/// updates: no atomics needed, padded against false sharing; read under
/// quiescence or accept torn snapshots.
class wf_stats : public no_hooks {
 public:
  explicit wf_stats(std::uint32_t max_threads) : counters_(max_threads) {}

  // Inlined, each call folds to its one increment; left to GCC, kpqbench's
  // stats queue called it out of line on every event.
  [[gnu::always_inline]] void event(std::uint32_t tid, wf_event e,
                                    std::int64_t /*phase*/,
                                    std::uint32_t aux) {
    wf_counters& c = counters_[tid].get();
    if (e == wf_event::enq_publish) ++c.enq_ops;
    if (e == wf_event::deq_publish) ++c.deq_ops;
    if (e == wf_event::deq_complete && aux == 0) ++c.empty_deqs;
    // A won step 2 counts unless the operation was this thread's own.
    if (e == wf_event::enq_done_for && aux != tid) ++c.helped_enq_completions;
    if (e == wf_event::deq_done_for && aux != tid) ++c.helped_deq_completions;
    if (e == wf_event::link_lost) ++c.link_cas_failures;
    if (e == wf_event::record_lost) ++c.desc_cas_failures;
  }

  const wf_counters& counters(std::uint32_t tid) const {
    return counters_[tid].get();
  }
  wf_counters aggregate_counters() const {
    wf_counters total;
    for (const auto& s : counters_) total += s.get();
    return total;
  }

 private:
  std::vector<padded<wf_counters>> counters_;
};

/// Hook: events 0-7 into the recording thread's ring of obs::global_trace().
struct wf_trace : no_hooks {
  static void event(std::uint32_t tid, wf_event e, std::int64_t phase,
                    std::uint32_t aux) noexcept {
    if (e <= wf_event::retire) {
      obs::global_trace().record(tid, static_cast<obs::trace_kind>(e), phase,
                                 aux);
    }
  }
};

/// A fast-path queue's fast/slow split (path_counters()). The slow-path
/// share measures contention: a rising share means fast-path CAS attempts
/// are being burned and more operations pay for the announce-and-help path.
struct fps_path_stats {
  std::uint64_t fast_enqs = 0;
  std::uint64_t slow_enqs = 0;
  std::uint64_t fast_deqs = 0;
  std::uint64_t slow_deqs = 0;

  std::uint64_t ops() const noexcept {
    return fast_enqs + slow_enqs + fast_deqs + slow_deqs;
  }
  double slow_rate() const noexcept {
    const std::uint64_t n = ops();
    return n == 0 ? 0.0
                  : static_cast<double>(slow_enqs + slow_deqs) /
                        static_cast<double>(n);
  }
  fps_path_stats& operator+=(const fps_path_stats& o) noexcept {
    fast_enqs += o.fast_enqs;
    slow_enqs += o.slow_enqs;
    fast_deqs += o.fast_deqs;
    slow_deqs += o.slow_deqs;
    return *this;
  }
};

// ------------------------------------------------------ fast-path policies
// wf_queue derives from its Options::fast_path, so a policy's public members
// are the queue's.

/// The paper's algorithm: every operation announces and takes the slow path.
struct no_fast_path {
  static constexpr bool has_fast_path = false;

 protected:
  explicit no_fast_path(std::uint32_t /*max_threads*/) {}
};

/// The §3.3 extension the paper points at ("apply techniques of [2] to have
/// the time complexity of the algorithm depend on the number of threads
/// concurrently accessing the queue rather than n"), realized the way Kogan
/// & Petrank themselves later did (PPoPP'12, "A methodology for creating
/// fast wait-free data structures"). Each operation
///   1. probes one announce slot in cyclic order and helps the pending
///      operation it finds to completion — so a slow-path operation is
///      helped after at most n operations of each active peer;
///   2. makes up to MaxTries plain Michael–Scott attempts (the paper's
///      MAX_FAILURES patience, a compile-time constant; 0 sends every
///      operation straight to the slow path) — contention-free cost is the
///      MS queue's plus one probe, independent of n;
///   3. then announces on the queue's own slow path.
/// The paths share linearization points. Enqueue: the link CAS; a fast node
/// carries enq_tid == no_tid, so a helper that finds it dangling knows there
/// is no record to complete and only swings the tail. Dequeue: a CAS on the
/// unclaimed head word. A fast dequeue has no record to complete, so its one
/// CAS {first, none} -> {next, none} claims and swings at once, as
/// Michael–Scott's head CAS does; it cannot pass a slow claim, whose
/// {first, tid} no longer matches, and finishes one it finds first. An empty
/// fast dequeue linearizes at its read of a null next behind the pinned
/// sentinel and reads no tail, the line every enqueue's swing writes: head
/// leaves a pinned `first` only by a swing to a non-null first->next, and a
/// claim needs first != tail, so at that read head held an unclaimed `first`
/// with nothing behind it. Only a non-empty attempt reads tail, after its
/// head re-check, so that head never passes a lagging tail. A fast enqueue
/// winner swings the tail itself, without help_finish_enq.
template <std::uint32_t MaxTries = 8>
class ms_fast_path {
 public:
  static constexpr bool has_fast_path = true;
  /// Fast-path attempts per operation before it announces.
  static constexpr std::uint32_t max_tries = MaxTries;

  /// Thread `tid`'s fast/slow split, always kept: owner-written cells
  /// (sync/owner_cell.hpp), exact at quiescence, a momentary estimate
  /// during a run.
  fps_path_stats path_counters(std::uint32_t tid) const noexcept {
    const fps_path_stats& c = cells_[tid]->path;
    return {owner_load(c.fast_enqs), owner_load(c.slow_enqs),
            owner_load(c.fast_deqs), owner_load(c.slow_deqs)};
  }
  fps_path_stats aggregate_path_counters() const noexcept {
    fps_path_stats total;
    for (std::uint32_t t = 0; t < cells_.size(); ++t) {
      total += path_counters(t);
    }
    return total;
  }

 protected:
  explicit ms_fast_path(std::uint32_t max_threads) : cells_(max_threads) {}

  /// The announce slot `my` probes next (owner-only cyclic cursor).
  std::uint32_t next_candidate(std::uint32_t my, std::uint32_t n) noexcept {
    std::uint32_t& k = cells_[my]->cursor;
    const std::uint32_t candidate = k;
    k = (k + 1 == n) ? 0 : k + 1;
    return candidate;
  }

  /// One operation of `my` took the path `field` names: one relaxed store.
  void path_taken(std::uint32_t my,
                  std::uint64_t fps_path_stats::* field) noexcept {
    owner_add(cells_[my]->path.*field);
  }

 private:
  friend struct kpq::testing::whitebox;
  struct cell {  // written by its owner only
    std::uint32_t cursor = 0;
    fps_path_stats path;
  };
  // On its own line: every fast-path operation reads this header. Packed
  // onto the queue's first line instead, kpqbench pairs ran fps 4% slower
  // at a 7% higher p90 on 4 pinned cores.
  alignas(destructive_interference) std::vector<padded<cell>> cells_;
};

/// Compile-time queue options: the instrumentation hook and the fast-path
/// policy.
struct wf_options {
  /// no_hooks, wf_stats, wf_trace or a test's own.
  using hooks = no_hooks;
  /// Fast-path policy: no_fast_path, or ms_fast_path (wf_queue_fps.hpp).
  using fast_path = no_fast_path;
};

struct wf_options_stats : wf_options {
  using hooks = wf_stats;
};
/// The traced twin: events 0-7 into obs::global_trace().
struct wf_options_traced : wf_options {
  using hooks = wf_trace;
};

/// A tid at or above max_threads() would index past the per-thread arrays;
/// every build stops here instead (cold, out of line, never returns).
[[noreturn, gnu::cold, gnu::noinline]] inline void tid_out_of_range(
    std::uint32_t tid, std::uint32_t max_threads) {
  std::fprintf(stderr, "kpq: tid %u out of range (max_threads %u)\n", tid,
               max_threads);
  std::abort();
}

/// A max_threads above `limit` names claimers the head word cannot encode;
/// every build stops here instead (cold, out of line, never returns).
[[noreturn, gnu::cold, gnu::noinline]] inline void max_threads_out_of_range(
    std::uint32_t max_threads, std::uint32_t limit) {
  std::fprintf(stderr, "kpq: max_threads %u out of range (limit %u)\n",
               max_threads, limit);
  std::abort();
}

template <typename T, typename HelpPolicy = help_all,
          typename PhasePolicy = scan_max_phase, typename Reclaimer = hp_domain,
          typename Options = wf_options,
          typename Storage = heap_node_storage<T>>
class wf_queue : public mem_tracked, public Options::fast_path {
  static_assert(std::is_default_constructible_v<T>,
                "the initial sentinel node holds a T{}");
  static_assert(std::is_copy_constructible_v<T>,
                "helpers copy the dequeued payload concurrently");
  static_assert(node_storage_for<Storage, Reclaimer>,
                "Storage must satisfy the node-storage contract "
                "(storage/storage_concepts.hpp)");

 public:
  using value_type = T;
  using node_type = wf_node<T>;
  using record_type = announce_record<node_type>;
  using reclaimer_type = Reclaimer;
  using storage_type = Storage;
  using help_policy_type = HelpPolicy;
  using fast_path_type = typename Options::fast_path;
  using fast_path_type::has_fast_path;
  using hooks_type = typename Options::hooks;

  /// Hazard slots used per thread: head/first, tail/last, next. A pending
  /// enqueue's node needs none (docs/ALGORITHM.md §2(b)).
  static constexpr std::uint32_t hp_slots = 3;
  enum slot : std::uint32_t { s_first = 0, s_last = 1, s_next = 2 };

  /// `max_threads` bounds the number of distinct thread ids (dense, from
  /// kpq::this_thread_id() or passed explicitly) that may ever operate on
  /// this queue (paper: NUM_THRDS), at most head_cell::max_claimers (2047).
  /// Pass `mc` to account every node allocation from the first one (the
  /// Figure 10 bench does).
  explicit wf_queue(std::uint32_t max_threads, mem_counters* mc = nullptr)
      : mem_tracked(mc),
        fast_path_type(encodable(max_threads)),
        n_(max_threads),
        storage_(max_threads, this),
        reclaim_(max_threads, hp_slots),
        help_(max_threads),
        phase_(max_threads),
        hooks_(make_hook<hooks_type>(max_threads)),
        state_(max_threads) {
    if constexpr (requires { reclaim_.set_roots(&record_roots, this); }) {
      reclaim_.set_roots(&record_roots, this);
    }
    node_type* sentinel = alloc_node(0, T{}, no_tid);  // paper line 28
    // kpq-order: seq_cst pairs-with the ctor-exit seq_cst fence below —
    // no thread can access the queue before construction returns.
    head_.cas({}, {sentinel, no_tid});
    // kpq-order: relaxed pairs-with the ctor-exit seq_cst fence below
    tail_.store(sentinel, std::memory_order_relaxed);
    // paper lines 32-34: state_'s records start done, with phase no_phase.
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  wf_queue(const wf_queue&) = delete;
  wf_queue& operator=(const wf_queue&) = delete;

  /// Requires quiescence (no operation in flight), like all concurrent
  /// container destructors.
  ~wf_queue() {
    // kpq-order: seq_cst pairs-with none (destructor requires quiescence;
    // callers synchronize via thread join before destroying the queue)
    node_type* n = head_.word().node;
    while (n != nullptr) {
      // kpq-hazard: quiescent — no concurrent retirement during destruction
      // kpq-order: relaxed pairs-with none (quiescent, see above)
      node_type* next = n->next.load(std::memory_order_relaxed);
      storage_.release(n);
      n = next;
    }
    for (std::uint32_t i = 0; i < n_; ++i) {
      assert(!state_[i]->word().pending() &&
             "destroying a queue with an operation in flight");
    }
    // reclaim_ drains its retired nodes on destruction; it is declared
    // after storage_ so node reclamation callbacks still have a live
    // storage to recycle into (storage_concepts.hpp).
  }

  // ---------------------------------------------------------------- enqueue

  /// paper lines 61-66
  void enqueue(T value) { enqueue(std::move(value), this_thread_id()); }

  void enqueue(T value, std::uint32_t tid) {
    check_tid(tid);
    auto g = reclaim_.enter(tid);
    if constexpr (has_fast_path) {
      fast_probe(tid, g);
      // Fast path: plain MS link attempts. enq_tid == no_tid marks a fast
      // node: helpers only fix the tail for it.
      node_type* node = alloc_node(tid, std::move(value), no_tid);
      for (std::uint32_t k = 0, tries = this->max_tries; k < tries; ++k) {
        note(tid, wf_event::fast_attempt);
        node_type* last = protect(g, tid, s_last, tail_);
        sched(tid, sched_site::load);
        node_type* next = last->next.load(std::memory_order_seq_cst);
        sched(tid, sched_site::load);
        if (last != tail_.load(std::memory_order_seq_cst)) continue;
        if (next != nullptr) {
          help_finish_enq(tid, g);
          continue;
        }
        node_type* expected = nullptr;
        sched(tid, sched_site::link);
        if (last->next.compare_exchange_strong(expected, node,
                                               std::memory_order_seq_cst)) {
          this->path_taken(tid, &fps_path_stats::fast_enqs);
          swing_tail(tid, last, node);
          return;
        }
      }
      // Slow path: adopt the node (it was never published) and announce.
      this->path_taken(tid, &fps_path_stats::slow_enqs);
      node->enq_tid = static_cast<std::int32_t>(tid);
      announce_enq(tid, next_phase(tid, g), node, g);
    } else {
      const std::int64_t phase = next_phase(tid, g);  // line 62
      announce_enq(tid, phase,
                   alloc_node(tid, std::move(value),
                              static_cast<std::int32_t>(tid)),
                   g);
    }
  }

  // ---------------------------------------------------------------- dequeue

  /// paper lines 98-108; empty queue yields nullopt instead of an exception.
  std::optional<T> dequeue() { return dequeue(this_thread_id()); }

  std::optional<T> dequeue(std::uint32_t tid) {
    check_tid(tid);
    auto g = reclaim_.enter(tid);
    if constexpr (has_fast_path) {
      fast_probe(tid, g);
      // Fast path: one CAS on the head word claims and swings at once.
      // Both paths linearize by a CAS on that word from {first, none}, so
      // fast and slow dequeues serialize through it.
      for (std::uint32_t k = 0, tries = this->max_tries; k < tries; ++k) {
        note(tid, wf_event::fast_attempt);
        const head_type h = protect(g, tid, s_first, head_);
        node_type* first = h.node;
        node_type* next = protect(g, tid, s_next, first->next);
        if (next == nullptr) {  // empty at this read: no tail read
          this->path_taken(tid, &fps_path_stats::fast_deqs);
          return std::nullopt;
        }
        if (h != load_head(tid)) continue;
        if (h.claimer != no_tid) {  // a slow claim stands: finish it first
          help_finish_deq(tid, g);
          continue;
        }
        sched(tid, sched_site::load);
        if (first == tail_.load(std::memory_order_seq_cst)) {
          help_finish_enq(tid, g);  // dangling enqueue first
          continue;
        }
        // `next` is safe to read: first == head implies it is not retired.
        T value = next->value;
        if (swing_head(tid, sched_site::claim, h, next)) {
          this->path_taken(tid, &fps_path_stats::fast_deqs);
          return value;
        }
      }
      this->path_taken(tid, &fps_path_stats::slow_deqs);
      return announce_deq(tid, next_phase(tid, g), g);
    } else {
      const std::int64_t phase = next_phase(tid, g);  // line 99
      return announce_deq(tid, phase, g);
    }
  }

  // ----------------------------------------------------------- observability

  std::uint32_t max_threads() const noexcept { return n_; }

  /// True if the queue looked empty at some point during the call.
  bool empty_hint(std::uint32_t tid) {
    check_tid(tid);
    auto g = reclaim_.enter(tid);
    node_type* first = protect(g, tid, s_first, head_).node;
    return protect(g, tid, s_next, first->next) == nullptr;
  }
  bool empty_hint() { return empty_hint(this_thread_id()); }

  reclaimer_type& reclaimer() noexcept { return reclaim_; }
  storage_type& storage() noexcept { return storage_; }
  const storage_type& storage() const noexcept { return storage_; }

  /// Per-thread counters, when the hook keeps them (wf_stats).
  const wf_counters& counters(std::uint32_t tid) const
    requires requires(const hooks_type& h) { h.counters(tid); }
  {
    return hooks_.counters(tid);
  }
  wf_counters aggregate_counters() const
    requires requires(const hooks_type& h) { h.aggregate_counters(); }
  {
    return hooks_.aggregate_counters();
  }

  /// Test-only, requires quiescence: number of elements by list walk.
  std::size_t unsafe_size() const {
    std::size_t n = 0;
    // kpq-hazard: quiescent by contract (test-only helper) — no node can
    // be retired while we walk.
    // kpq-order: seq_cst pairs-with the seq_cst link/swing CASes of the
    // last completed operations (observe their node writes at quiescence)
    const node_type* p = head_.word().node;
    // kpq-hazard: quiescent (see above)
    // kpq-order: acquire pairs-with the linking CAS (line 74) of each
    // enqueue whose node this walk visits
    for (p = p->next.load(std::memory_order_acquire); p != nullptr;
         // kpq-hazard: quiescent (see above)
         // kpq-order: acquire pairs-with the linking CAS (line 74)
         p = p->next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

  // ------------------------------------------------- policy/helping interface
  // Public because the help/phase policies drive them; not part of the user
  // API.

  /// paper lines 48-57: the largest phase any record carries.
  template <typename Guard>
  std::int64_t max_phase(Guard& /*g*/, std::uint32_t my) {
    std::int64_t m = no_phase;
    for (std::uint32_t i = 0; i < n_; ++i) {
      sched(my, sched_site::load);
      const std::int64_t ph = state_[i]->phase.load(std::memory_order_seq_cst);
      if (ph > m) m = ph;
    }
    return m;
  }

  /// paper lines 38-44: one iteration of the help() loop body. `my` is the
  /// helping thread's own id (reclamation bookkeeping).
  template <typename Guard>
  void help_if_needed(std::uint32_t i, std::int64_t phase, Guard& g,
                      std::uint32_t my) {
    const announced a = read_record(my, i);
    if (a.word.pending() && a.phase <= phase) {  // line 39
      help_op(i, a, phase, g, my);
    }
  }

  /// help_one's probe (help_policy.hpp): help thread i only if its pending
  /// operation still carries `seen`, the phase found at the previous look,
  /// and passes the line-39 filter. Returns no_phase if it helped or nothing
  /// is pending, else the pending phase (the caller's next `seen`).
  template <typename Guard>
  std::int64_t help_if_seen(std::uint32_t i, std::int64_t phase,
                            std::int64_t seen, Guard& g, std::uint32_t my) {
    const announced a = read_record(my, i);
    if (!a.word.pending()) return no_phase;
    if (a.phase != seen || a.phase > phase) return a.phase;
    help_op(i, a, phase, g, my);
    return no_phase;
  }

 private:
  friend struct kpq::testing::whitebox;

  using word_type = typename record_type::word_type;
  using head_type = head_word<node_type>;

  /// A record as a helper reads it: the word, then the phase. The phase is
  /// the word's operation's or, if that operation has since completed and
  /// its owner moved on, a newer one (announce_record.hpp).
  struct announced {
    word_type word;
    std::int64_t phase;
  };

  void check_tid(std::uint32_t tid) const noexcept {
    if (tid >= n_) [[unlikely]] tid_out_of_range(tid, n_);
  }

  /// `max_threads` if the head word can name each of its tids as a claimer;
  /// checked before anything is sized by it.
  static std::uint32_t encodable(std::uint32_t max_threads) noexcept {
    constexpr std::uint32_t limit = head_cell<node_type>::max_claimers;
    if (max_threads > limit) [[unlikely]] {
      max_threads_out_of_range(max_threads, limit);
    }
    return max_threads;
  }

  void sched(std::uint32_t tid, sched_site site) {
    hooks_.sched_point(tid, site);
  }
  void note(std::uint32_t tid, wf_event e, std::int64_t phase = 0,
            std::uint32_t aux = 0) {
    hooks_.event(tid, e, phase, aux);
  }

  /// g.protect(slot, src) taken by thread `tid`: a scheduling point first.
  /// `src` is a node pointer or the head word.
  template <typename Guard, typename Src>
  auto protect(Guard& g, std::uint32_t tid, std::uint32_t hp_slot,
               const Src& src) {
    sched(tid, sched_site::protect);
    return g.protect(hp_slot, src);
  }

  /// A re-read of the head word by thread `my`, which validates a protected
  /// `first` (and the `next` read through it) while it returns the word the
  /// protect returned.
  head_type load_head(std::uint32_t my) {
    sched(my, sched_site::load);
    // kpq-order: seq_cst pairs-with the head-word CASes in swing_head and
    // help_deq's claim (head_cell::word is a seq_cst load)
    return head_.word();
  }

  template <typename Guard>
  std::int64_t next_phase(std::uint32_t tid, Guard& g) {
    sched(tid, sched_site::phase);
    return phase_.next_phase(*this, g, tid);
  }

  // ----------------------------------------------------------------- records

  /// Thread `my` reads record i: three half-loads and at most one CAS
  /// (announce_record.hpp), each a load step of its own.
  word_type load_word(std::uint32_t my, std::uint32_t i) {
    return state_[i]->word([&] { sched(my, sched_site::load); });
  }

  announced read_record(std::uint32_t my, std::uint32_t i) {
    const word_type w = load_word(my, i);
    sched(my, sched_site::load);
    return {w, state_[i]->phase.load(std::memory_order_seq_cst)};
  }

  /// Thread `tid`'s record if it holds a pending operation of kind `enq`
  /// with phase <= ph (paper lines 58-60), else nullopt. The paper reads
  /// kind and phase from one descriptor; here the phase is read after the
  /// word and may be the owner's next operation's, so fast_probe, whose
  /// bound is that phase, could otherwise send help_deq to an enqueue.
  std::optional<word_type> pending_record(std::uint32_t tid, std::int64_t ph,
                                          bool enq, std::uint32_t my) {
    const announced a = read_record(my, tid);
    if (a.word.pending() && a.word.enqueue() == enq && a.phase <= ph) {
      return a.word;
    }
    return std::nullopt;
  }

  /// The owner announces an operation: phase first, then a CAS from its own
  /// completed record, which no other thread changes.
  void publish(std::uint32_t tid, std::int64_t phase, bool enqueue,
               node_type* node) {
    record_type& r = state_[tid].get();
    // kpq-order: release pairs-with the helpers' seq_cst phase loads, which
    // follow their load of the word this thread's CAS below installs
    r.phase.store(phase, std::memory_order_release);
    const word_type done = r.word();
    assert(!done.pending() && "publishing over a pending operation");
    sched(tid, sched_site::state);
    [[maybe_unused]] const bool won =
        r.cas(done, done.next(true, enqueue, node));
    assert(won && "a helper changed a completed record");
  }

  /// A helper's step on thread `tid`'s pending record `cur`: install
  /// {pending, node} under the next version and return the installed word.
  /// Fails (nullopt) if any transition happened since `cur` was read —
  /// versions never repeat.
  std::optional<word_type> swap_record(std::uint32_t tid, std::uint32_t my,
                                       word_type cur, bool pending,
                                       node_type* node) {
    const word_type desired = cur.next(pending, cur.enqueue(), node);
    sched(my, sched_site::state);
    if (state_[tid]->cas(cur, desired)) return desired;
    note(my, wf_event::record_lost);
    return std::nullopt;
  }

  /// Step 2 of thread `tid`'s operation: CAS its pending word `cur` to done,
  /// naming `node`; a won CAS is event `done` (enq_done_for or
  /// deq_done_for).
  void complete_record(std::uint32_t tid, std::uint32_t my, word_type cur,
                       node_type* node, wf_event done) {
    if (swap_record(tid, my, cur, false, node)) note(my, done, 0, tid);
  }

  /// hp_domain::set_roots callback: every node a record names is announced,
  /// so a completed dequeue's item node outlives its owner's read.
  static void record_roots(void* ctx, std::vector<void*>& out) {
    const auto* q = static_cast<const wf_queue*>(ctx);
    for (std::uint32_t i = 0; i < q->n_; ++i) {
      if (node_type* p = q->state_[i]->word().node) out.push_back(p);
    }
  }

  // ------------------------------------------------------------- allocation
  // Nodes live wherever the Storage policy puts them (storage/).

  node_type* alloc_node(std::uint32_t tid, T v, std::int32_t etid) {
    return storage_.alloc(tid, std::move(v), etid, reclaim_);
  }

  void retire_node(std::uint32_t tid, node_type* n) {
    sched(tid, sched_site::retire);
    note(tid, wf_event::retire);
    storage_.retire(tid, n, reclaim_);
  }

  // --------------------------------------------------------------- slow path

  /// paper lines 63-65.
  template <typename Guard>
  void announce_enq(std::uint32_t tid, std::int64_t phase, node_type* node,
                    Guard& g) {
    publish(tid, phase, true, node);  // line 63
    note(tid, wf_event::enq_publish, phase);
    if constexpr (has_fast_path) {
      help_enq(tid, phase, g, tid);  // the fast probe already helped a peer
    } else {
      help_.run(*this, tid, phase, g);  // line 64
    }
    help_finish_enq(tid, g);  // line 65
    note(tid, wf_event::enq_complete, phase);
  }

  /// paper lines 100-107; nullopt means linearized on an empty queue.
  template <typename Guard>
  std::optional<T> announce_deq(std::uint32_t tid, std::int64_t phase,
                                Guard& g) {
    publish(tid, phase, false, nullptr);  // line 100
    note(tid, wf_event::deq_publish, phase);
    if constexpr (has_fast_path) {
      help_deq(tid, phase, g, tid);  // the fast probe already helped a peer
    } else {
      help_.run(*this, tid, phase, g);  // line 101
    }
    help_finish_deq(tid, g);  // line 102
    // line 103: the done record names the node holding our item (null:
    // empty). Only our next publish changes a completed record.
    node_type* item = load_word(tid, tid).node;
    std::optional<T> result;
    // kpq-hazard: record root — hp_domain::set_roots keeps every node a
    // record names, and ours names `item` until our next publish
    if (item != nullptr) result = item->value;
    note(tid, wf_event::deq_complete, phase, result.has_value() ? 1 : 0);
    return result;
  }

  // --------------------------------------------------------------- fast path
  // ms_fast_path only (the policy's comment has the design).

  /// One cyclic probe: help whatever announced operation sits at the
  /// cursor, to completion. A fast operation has no phase of its own, so
  /// the victim's phase bounds the help.
  template <typename Guard>
  void fast_probe(std::uint32_t my, Guard& g) {
    const std::uint32_t i = this->next_candidate(my, n_);
    if (i == my) return;
    const announced a = read_record(my, i);
    if (a.word.pending()) help_op(i, a, a.phase, g, my);
  }

  // ----------------------------------------------------------------- helping

  /// paper lines 40-44: help thread i's pending operation `a` while it
  /// stays pending with phase <= `phase`.
  template <typename Guard>
  void help_op(std::uint32_t i, const announced& a, std::int64_t phase,
               Guard& g, std::uint32_t my) {
    // A helping episode: this thread works on thread i's operation. Own
    // operations (i == my) are not episodes — that is just completing.
    if (i != my) note(my, wf_event::help_start, a.phase, i);
    if (a.word.enqueue()) {
      help_enq(i, phase, g, my);  // line 41
    } else {
      help_deq(i, phase, g, my);  // line 43
    }
    if (i != my) note(my, wf_event::help_finish, a.phase, i);
  }

  /// paper lines 67-84. `tid` owns the pending enqueue; the caller's thread
  /// id only matters for reclamation bookkeeping and is carried by `g`'s
  /// slots plus `my` below.
  template <typename Guard>
  void help_enq(std::uint32_t tid, std::int64_t phase, Guard& g,
                std::uint32_t my) {
    while (pending_record(tid, phase, true, my)) {            // line 68
      node_type* last = protect(g, my, s_last, tail_);  // line 69
      node_type* next = protect(g, my, s_next, last->next);  // line 70
      sched(my, sched_site::load);
      if (last != tail_.load(std::memory_order_seq_cst)) {     // line 71
        continue;
      }
      if (next == nullptr) {  // line 72: enqueue can be applied
        // line 73: the operation must still be pending. `node` needs no
        // pin: the CAS never dereferences it, and it wins only while `node`
        // is unlinked and `cur` still current (docs/ALGORITHM.md §2(b)).
        const std::optional<word_type> cur =
            pending_record(tid, phase, true, my);
        if (!cur) continue;
        node_type* node = cur->node;
        node_type* expected = nullptr;
        sched(my, sched_site::link);
        if (last->next.compare_exchange_strong(
                expected, node, std::memory_order_seq_cst)) {  // line 74
          // line 75, by the winner: it completes the very word it linked
          // for and swings the tail from the `last` it linked behind, with
          // no re-read. Only the operation whose node was just linked can
          // still hold `cur`; a lost CAS means a helper already did step 2,
          // and the swing still applies. Step 2 goes first: a tail past
          // `node` with the record still pending would let the owner's
          // loop link `node` a second time.
          complete_record(tid, my, *cur, node, wf_event::enq_done_for);
          swing_tail(my, last, node);
          return;  // line 76
        }
        note(my, wf_event::link_lost);
      } else {                          // line 79: an enqueue is in progress
        help_finish_enq(my, g);           // line 80: help it first, then retry
      }
    }
  }

  /// paper lines 85-97 (steps 2 and 3 of the enqueue scheme).
  template <typename Guard>
  void help_finish_enq(std::uint32_t my, Guard& g) {
    node_type* last = protect(g, my, s_last, tail_);  // line 86
    node_type* next = protect(g, my, s_next, last->next);  // line 87
    if (next == nullptr) return;                       // line 88
    // Reclamation subtlety absent from the paper's GC setting: `next` was
    // announced against the write-once last->next, which validates nothing.
    // Re-check tail AFTER the announce and BEFORE dereferencing: while
    // tail == last, head <= last in list order, so the dangling node cannot
    // yet have been dequeued, let alone retired — and any later retirement
    // happens after this check, hence after our announce, so the reclaimer
    // sees it (Michael 2004 uses the same validate-the-source pattern).
    sched(my, sched_site::load);
    if (last != tail_.load(std::memory_order_seq_cst)) return;
    const std::int32_t etid = next->enq_tid;           // line 89
    if constexpr (has_fast_path) {
      // A fast node has no record: only step 3 applies, and skipping
      // step 2 is safe precisely because nothing is pending for it.
      if (etid == no_tid) {
        swing_tail(my, last, next);
        return;
      }
    }
    assert(etid != no_tid);
    const auto tid = static_cast<std::uint32_t>(etid);
    const word_type cur = load_word(my, tid);  // line 90
    sched(my, sched_site::load);
    if (last == tail_.load(std::memory_order_seq_cst)) {  // line 91
      // The paper also tests cur.node == next, which always holds while
      // tail == last (docs/ALGORITHM.md §2(d)).
      assert(cur.node == next);
      // lines 92-93 (step 2): clear pending. Helpers CAS only pending
      // records; a completed one is already in its final state.
      if (cur.pending()) {
        complete_record(tid, my, cur, next, wf_event::enq_done_for);
      }
      swing_tail(my, last, next);  // line 94 (step 3)
    }
  }

  /// Step 3 of an enqueue: swing tail from `last` to the node linked behind
  /// it. `last` is pinned; `next` need not be: the CAS succeeds only while
  /// tail == last, when `next` is last->next and cannot have been dequeued.
  void swing_tail(std::uint32_t my, node_type* last, node_type* next) {
    sched(my, sched_site::swing);
    // kpq-order: seq_cst pairs-with the tail_ re-reads that validate a
    // protected `last` (help_enq, help_finish_enq, the fast paths)
    tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst);
  }

  /// paper lines 109-140.
  template <typename Guard>
  void help_deq(std::uint32_t tid, std::int64_t phase, Guard& g,
                std::uint32_t my) {
    while (pending_record(tid, phase, false, my)) {            // line 110
      node_type* first = protect(g, my, s_first, head_).node;  // line 111
      sched(my, sched_site::load);
      node_type* last = tail_.load(std::memory_order_seq_cst);  // line 112
      node_type* next = protect(g, my, s_next, first->next);  // line 113
      if (first != load_head(my).node) continue;  // line 114
      if (first == last) {      // line 115: queue might be empty
        if (next == nullptr) {  // line 116: queue is empty
          // line 117
          const std::optional<word_type> cur =
              pending_record(tid, phase, false, my);
          sched(my, sched_site::load);
          if (last == tail_.load(std::memory_order_seq_cst) &&
              cur) {  // line 118
            // lines 119-120: mark the operation completed-empty.
            swap_record(tid, my, *cur, false, nullptr);
          }
        } else {                     // line 122: an enqueue is in progress
          help_finish_enq(my, g);    // line 123
        }
      } else {  // line 125: queue is not empty
        const std::optional<word_type> cur =
            pending_record(tid, phase, false, my);  // lines 126-128
        if (!cur) break;
        word_type staged = *cur;  // the word known to name `first`, if any
        const head_type now = load_head(my);
        if (now.node == first && cur->node != first) {  // line 129
          // lines 130-131: stage 0 — point tid's record at the sentinel.
          const std::optional<word_type> installed =
              swap_record(tid, my, *cur, true, first);
          if (!installed) continue;  // line 132
          staged = *installed;
        }
        // The claim can win only if `now` was {first, none}: with `first`
        // pinned, the head word never returns to an earlier value. So a
        // claimed or moved `now` skips the CAS, which would only take the
        // head's line from the swing that ends the standing claim.
        const head_type claimed{first, static_cast<std::int32_t>(tid)};
        if (now == head_type{first, no_tid} &&
            claim_head(my, claimed)) {  // line 135 (stage 1)
          // line 136, by the winner: a won claim means head was still
          // `first`, so either `cur` named it or this thread's stage 0 did.
          // Complete that word with `next` (non-null: tail had passed
          // `first`) and swing head, with no re-read. A lost CAS means a
          // helper already did step 2; the swing still applies.
          assert(staged.node == first && next != nullptr);
          complete_record(tid, my, staged, next, wf_event::deq_done_for);
          swing_head(my, sched_site::swing, claimed, next);
        } else {
          help_finish_deq(my, g);  // line 136: the claim is another's
        }
      }
    }
  }

  /// paper lines 141-153 (stages 2 and 3 of the dequeue scheme). The claim
  /// is read off the head word (lines 142, 144), so an unclaimed head stops
  /// here without touching the sentinel.
  template <typename Guard>
  void help_finish_deq(std::uint32_t my, Guard& g) {
    const head_type h = protect(g, my, s_first, head_);      // lines 142, 144
    if (h.claimer == no_tid) return;                         // line 145
    node_type* next = protect(g, my, s_next, h.node->next);  // line 143
    const auto tid = static_cast<std::uint32_t>(h.claimer);
    const word_type cur = load_word(my, tid);     // line 146
    if (h == load_head(my) && next != nullptr) {  // line 147
      // lines 148-149 (step 2): a pending record becomes done and names
      // `next`, the node holding the item (the owner reads the value from
      // it). While the head word still holds tid's claim, tid's operation
      // is the one that claimed, and `next` cannot be retired before head
      // leaves the sentinel.
      if (cur.pending()) {
        complete_record(tid, my, cur, next, wf_event::deq_done_for);
      }
      swing_head(my, sched_site::swing, h, next);  // line 150 (step 3)
    }
  }

  /// Step 1 of a dequeue (line 135): CAS the head word from {first, none}
  /// to `claimed`, {first, tid}.
  bool claim_head(std::uint32_t my, head_type claimed) {
    sched(my, sched_site::claim);
    // kpq-order: seq_cst pairs-with load_head's re-reads and the protect
    // that validates a helper's `first` (head_cell::cas is seq_cst)
    return head_.cas({claimed.node, no_tid}, claimed);
  }

  /// Moves the head word from `from` (a claimed {first, tid}, or a fast
  /// dequeue's unclaimed {first, none}) to {next, none}. Exactly one thread
  /// wins; it owns retiring `first`. `site` is the step's class: a swing
  /// after a claim, or a fast dequeue's claim.
  bool swing_head(std::uint32_t my, sched_site site, head_type from,
                  node_type* next) {
    sched(my, site);
    // kpq-order: seq_cst pairs-with load_head's re-reads and the protect
    // that validate a pinned `first` and `next` (head_cell::cas is seq_cst)
    if (!head_.cas(from, {next, no_tid})) return false;
    retire_node(my, from.node);
    return true;
  }

  // ------------------------------------------------------------------- data

  const std::uint32_t n_;
  Storage storage_;  // before reclaim_: reclaimer shutdown drains node
                     // retirements through callbacks into the storage
  Reclaimer reclaim_;
  HelpPolicy help_;
  PhasePolicy phase_;
  // Takes no space for no_hooks and wf_trace. state_'s header is read on
  // every announce and help, so it gets a 128-byte block of its own: left
  // after tail_, a tail CAS invalidated it and kpqbench's opt_hp rung ran
  // 8% slower on 4 pinned cores (538 vs 499 ns/op).
  [[no_unique_address]] hooks_type hooks_;
  alignas(destructive_interference)
      std::vector<padded<record_type>> state_;  // paper line 26

  alignas(destructive_interference) head_cell<node_type> head_;
  alignas(destructive_interference) std::atomic<node_type*> tail_{nullptr};
};

// ------------------------------------------------------------------ aliases

/// The paper's evaluated variants (§4):
///   base WF       — help_all + scan_max_phase
///   opt WF (1)    — help_one + scan_max_phase
///   opt WF (2)    — help_all + fetch_add_phase
///   opt WF (1+2)  — help_one + fetch_add_phase
template <typename T, typename R = hp_domain>
using wf_queue_base = wf_queue<T, help_all, scan_max_phase, R>;
template <typename T, typename R = hp_domain>
using wf_queue_opt1 = wf_queue<T, help_one, scan_max_phase, R>;
template <typename T, typename R = hp_domain>
using wf_queue_opt2 = wf_queue<T, help_all, fetch_add_phase, R>;
template <typename T, typename R = hp_domain>
using wf_queue_opt = wf_queue<T, help_one, fetch_add_phase, R>;

}  // namespace kpq
