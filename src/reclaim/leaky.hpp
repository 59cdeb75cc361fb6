// "Leaky" reclaimer: every retired object is kept until the domain dies.
//
// Zero per-operation reclamation cost and trivially safe, at the price of
// memory growing with the total number of retirements. Two legitimate uses:
//   * benchmarking the pure algorithm with reclamation cost subtracted
//     (kpqbench's ladder uses it as the floor, bench/e2e), and
//   * tests that want deterministic object lifetimes.
// It is NOT suitable for long-running production workloads.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "reclaim/reclaimer_concepts.hpp"
#include "sync/cacheline.hpp"
#include "sync/owner_cell.hpp"

namespace kpq {

class leaky_domain {
 public:
  leaky_domain(std::uint32_t max_threads, std::uint32_t /*slots_per_thread*/,
               std::uint32_t /*threshold*/ = 0)
      : max_threads_(max_threads), retired_(max_threads) {}

  leaky_domain(const leaky_domain&) = delete;
  leaky_domain& operator=(const leaky_domain&) = delete;

  ~leaky_domain() {
    for (auto& r : retired_) {
      for (auto& item : r->items) item.fn(item.ctx, item.p);
    }
  }

  class guard {
   public:
    guard() = default;
    template <typename T>
    T* protect(std::uint32_t /*slot*/, const std::atomic<T*>& src) noexcept {
      // kpq-order: acquire pairs-with the seq_cst CAS that published *p —
      // lifetime is trivially safe here (nothing is ever freed)
      return src.load(std::memory_order_acquire);
    }
    template <typename T>
    void protect_raw(std::uint32_t /*slot*/, T* /*p*/) noexcept {}
    void clear(std::uint32_t /*slot*/) noexcept {}
  };

  guard enter(std::uint32_t tid) noexcept {
    assert(tid < max_threads_);
    (void)tid;
    return guard{};
  }

  void retire(std::uint32_t tid, void* p, retire_fn fn, void* ctx) {
    auto& r = retired_[tid].get();
    r.items.push_back({p, fn, ctx});
    owner_add(r.retired);
  }

  // A sum of owner-written per-thread cells (sync/owner_cell.hpp): exact
  // at quiescence, a momentary estimate while threads retire. Nothing is
  // freed before destruction, so every retirement stays pending.
  std::uint64_t retired_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : retired_) n += owner_load(r->retired);
    return n;
  }
  std::uint64_t freed_count() const noexcept { return 0; }
  std::size_t pending_count() const noexcept {
    std::size_t n = 0;
    for (const auto& r : retired_) n += r->items.size();
    return n;
  }

 private:
  struct retired_item {
    void* p;
    retire_fn fn;
    void* ctx;
  };
  struct retired_list {
    std::vector<retired_item> items;
    std::uint64_t retired = 0;  // owner-written cell (owner_add)
  };

  std::uint32_t max_threads_;
  std::vector<padded<retired_list>> retired_;
};

static_assert(reclaimer_domain<leaky_domain>);

}  // namespace kpq
