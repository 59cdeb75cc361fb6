// Per-thread lock-free event tracing for the observability layer.
//
// Motivation (docs/OBSERVABILITY.md): wait-freedom is a *per-operation*
// claim — bounded steps, helping under contention — but aggregate counters
// (wf_counters, shard_stats) read at join can only show totals. The trace
// ring records one fixed-size event per interesting hot-path step (publish,
// linearize/complete, help-start/finish, retire) so helping latency and
// phase lag become measurable distributions, the same style of
// per-operation evidence wCQ (Nikolaev & Ravindran 2022) uses to
// substantiate its step bounds.
//
// Design constraints, in order:
//   1. Zero cost when not selected. Only the queue records, through its
//      hook (wf_trace, core/wf_queue.hpp); a queue type without that hook
//      has empty hook calls that vanish at compile time.
//   2. No synchronization on the hot path when recording. Each thread owns
//      one ring; only the owner writes it (single-writer invariant), with
//      relaxed stores and a release publish of the head index. Recording is
//      a TSC read, one array store and one index store — no RMW, no fence.
//   3. Bounded memory. Rings are fixed-size and wrap; old events are
//      overwritten, and the drop count is reported so an analysis knows when
//      it is looking at a suffix of the run.
//
// Drain contract: drain() requires quiescence (all recording threads joined
// or otherwise synchronized-with the drainer), exactly like every other
// read-at-sampling-point surface in this repo (mem_counters, wf_counters).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness/timing.hpp"
#include "sync/cacheline.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace kpq::obs {

/// Cycle-granularity timestamp: TSC where available (x86-64 invariant TSC —
/// constant-rate, globally monotonic on every post-Nehalem part), steady
/// clock nanoseconds elsewhere. Units are "ticks"; calibrate_ticks()
/// (obs/calibrate.hpp) measures the conversion at analysis time.
inline std::uint64_t tick_now() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return now_ns();
#endif
}

/// What happened. Kept to one byte; the event's meaning for `phase`/`aux` is
/// listed per kind (docs/OBSERVABILITY.md has the full schema table).
enum class trace_kind : std::uint8_t {
  enq_publish = 0,   // record published;     phase = op phase
  enq_complete = 1,  // enqueue returned;     phase = op phase
  deq_publish = 2,   // record published;     phase = op phase
  deq_complete = 3,  // dequeue returned;     phase = op phase, aux = 1 if hit
  help_start = 4,    // tid begins helping;   phase = victim phase, aux = victim
  help_finish = 5,   // helping returned;     phase = victim phase, aux = victim
  retire = 7,        // node handed to the reclaimer
  // 6 and 8-13 are retired: stored traces carry numeric kinds, so a
  // retired value is never reassigned.
};

inline constexpr const char* trace_kind_name(trace_kind k) noexcept {
  switch (k) {
    case trace_kind::enq_publish: return "enq_publish";
    case trace_kind::enq_complete: return "enq_complete";
    case trace_kind::deq_publish: return "deq_publish";
    case trace_kind::deq_complete: return "deq_complete";
    case trace_kind::help_start: return "help_start";
    case trace_kind::help_finish: return "help_finish";
    case trace_kind::retire: return "retire";
  }
  return "unknown";
}

struct trace_event {
  std::uint64_t ts = 0;     // tick_now() at the hook site
  std::int64_t phase = 0;   // operation phase, or 0 where not applicable
  std::uint32_t tid = 0;    // recording (owner) thread
  std::uint32_t aux = 0;    // kind-specific (victim tid, dequeue hit)
  trace_kind kind = trace_kind::enq_publish;
};
static_assert(sizeof(trace_event) <= 32, "one event per half cache line");

/// Fixed-size single-writer ring. The owner thread records; anyone may read
/// AFTER synchronizing with the owner (join/barrier). Capacity is rounded up
/// to a power of two so the index wraps with a mask.
class trace_ring {
 public:
  explicit trace_ring(std::size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        buf_(mask_ + 1) {}

  void record(trace_kind kind, std::uint32_t tid, std::int64_t phase,
              std::uint32_t aux) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    trace_event& e = buf_[h & mask_];
    e.ts = tick_now();
    e.phase = phase;
    e.tid = tid;
    e.aux = aux;
    e.kind = kind;
    // Release-publish the slot so a drainer that acquires `head_` (after
    // quiescence this is belt-and-braces; join already synchronizes) sees
    // the completed event.
    head_.store(h + 1, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }
  /// Events ever recorded (monotone; may exceed capacity).
  std::uint64_t written() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Events overwritten by wrap-around and lost to drain().
  std::uint64_t dropped() const noexcept {
    const std::uint64_t w = written();
    return w > capacity() ? w - capacity() : 0;
  }

  /// Append the retained events, oldest first, to `out`. Quiescence
  /// required (see file comment).
  void drain(std::vector<trace_event>& out) const {
    const std::uint64_t w = written();
    const std::uint64_t lo = w > capacity() ? w - capacity() : 0;
    out.reserve(out.size() + static_cast<std::size_t>(w - lo));
    for (std::uint64_t i = lo; i < w; ++i) {
      out.push_back(buf_[i & mask_]);
    }
  }

  void reset() noexcept { head_.store(0, std::memory_order_release); }

 private:
  std::size_t mask_;
  std::vector<trace_event> buf_;
  std::atomic<std::uint64_t> head_{0};
};

/// One ring per dense thread id, allocated lazily on the owner's first
/// record so a 256-slot namespace does not cost 256 rings of memory.
class trace_domain {
 public:
  explicit trace_domain(std::uint32_t max_threads,
                        std::size_t capacity_per_thread = 1u << 14)
      : capacity_(capacity_per_thread), rings_(max_threads) {}

  ~trace_domain() {
    for (auto& r : rings_) {
      delete r.value.load(std::memory_order_acquire);
    }
  }

  trace_domain(const trace_domain&) = delete;
  trace_domain& operator=(const trace_domain&) = delete;

  std::uint32_t max_threads() const noexcept {
    return static_cast<std::uint32_t>(rings_.size());
  }
  std::size_t capacity_per_thread() const noexcept { return capacity_; }

  void record(std::uint32_t tid, trace_kind kind, std::int64_t phase,
              std::uint32_t aux) noexcept {
    ring_for(tid).record(kind, tid, phase, aux);
  }

  /// The calling thread's ring (lazy init is race-free because only the
  /// owner thread ever *stores* to its slot; the store is release so that
  /// drain_all() and reset(), which acquire the slot, see a fully
  /// constructed ring).
  trace_ring& ring_for(std::uint32_t tid) noexcept {
    trace_ring* r = rings_[tid].value.load(std::memory_order_relaxed);
    if (r == nullptr) {
      r = new trace_ring(capacity_);
      rings_[tid].value.store(r, std::memory_order_release);
    }
    return *r;
  }

  /// All retained events across threads, sorted by timestamp. Quiescence
  /// required. `dropped_out`, if given, receives the total overwrite count —
  /// nonzero means the analysis sees only a suffix of the run.
  std::vector<trace_event> drain_all(std::uint64_t* dropped_out = nullptr) {
    std::vector<trace_event> out;
    std::uint64_t dropped = 0;
    for (auto& r : rings_) {
      if (const trace_ring* p = r.value.load(std::memory_order_acquire)) {
        p->drain(out);
        dropped += p->dropped();
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const trace_event& a, const trace_event& b) {
                       return a.ts < b.ts;
                     });
    if (dropped_out) *dropped_out = dropped;
    return out;
  }

  void reset() noexcept {
    for (auto& r : rings_) {
      if (trace_ring* p = r.value.load(std::memory_order_acquire)) p->reset();
    }
  }

 private:
  std::size_t capacity_;
  std::vector<padded<std::atomic<trace_ring*>>> rings_;
};

/// Process-global domain wf_trace (core/wf_queue.hpp) records into —
/// sized for the whole dense-id namespace, like the thread registry itself.
trace_domain& global_trace();

}  // namespace kpq::obs
