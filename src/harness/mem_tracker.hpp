// Live-heap accounting for the Figure 10 reproduction.
//
// The paper measured the space overhead of the wait-free queue relative to
// the lock-free one by sampling JVM GC statistics (`--verbosegc`) for the
// size of live objects. We do not have a GC; instead every queue in this
// library routes its node allocations through an optional
// `mem_counters` sink, so "live bytes attributable to the queue" is an exact
// counter rather than a sampled estimate.
//
// The counters are atomics: allocation happens on every thread. Relaxed
// ordering suffices — benches only read them at sampling points that are
// already synchronized by thread join or by barrier.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace kpq {

class mem_counters {
 public:
  void on_alloc(std::size_t bytes) noexcept {
    live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    live_objects_.fetch_add(1, std::memory_order_relaxed);
    total_allocs_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_free(std::size_t bytes) noexcept {
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    live_objects_.fetch_sub(1, std::memory_order_relaxed);
  }

  std::int64_t live_bytes() const noexcept {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  std::int64_t live_objects() const noexcept {
    return live_objects_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_allocs() const noexcept {
    return total_allocs_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    live_bytes_.store(0, std::memory_order_relaxed);
    live_objects_.store(0, std::memory_order_relaxed);
    total_allocs_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> live_bytes_{0};
  std::atomic<std::int64_t> live_objects_{0};
  std::atomic<std::uint64_t> total_allocs_{0};
};

/// Mixin the queues use. The sink is fixed at construction, so a
/// container's first allocation (the KP queue's sentinel) is counted. A
/// null sink compiles to one predictable branch; the benchmarks that do
/// not measure space leave it null.
class mem_tracked {
 public:
  explicit mem_tracked(mem_counters* c = nullptr) noexcept : mem_(c) {}

  mem_counters* memory_counters() const noexcept { return mem_; }

  void account_alloc(std::size_t bytes) const noexcept {
    if (mem_) mem_->on_alloc(bytes);
  }
  void account_free(std::size_t bytes) const noexcept {
    if (mem_) mem_->on_free(bytes);
  }

 private:
  mem_counters* mem_;
};

}  // namespace kpq
