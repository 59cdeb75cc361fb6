// Owner-written statistics cells.
//
// A counter that only one thread ever writes needs no read-modify-write:
// the owner adds with a relaxed load and a relaxed store, and any thread may
// read the cell with a relaxed load. Kept in the owner's padded per-thread
// record, counting touches no cache line another thread writes, where one
// shared fetch_add per event would miss on every core. The price is the
// reading side: a sum over cells is a momentary estimate while owners run,
// and exact at quiescence (after the owners are joined).
//
// The cells are plain std::uint64_t accessed through std::atomic_ref, so a
// record that holds them stays trivially copyable and needs no atomic
// member.
#pragma once

#include <atomic>
#include <cstdint>

namespace kpq {

/// Adds `n` to `cell`. Only the cell's owner thread may call this.
inline void owner_add(std::uint64_t& cell, std::uint64_t n = 1) noexcept {
  const std::atomic_ref ref(cell);
  // kpq-order: relaxed pairs-with none (owner-written statistics cell: only
  // the owner writes it, so the non-RMW load+store loses no update; readers
  // see a recent value, the exact one at quiescence)
  ref.store(ref.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// Reads `cell` from any thread.
inline std::uint64_t owner_load(const std::uint64_t& cell) noexcept {
  // std::atomic_ref<const T> is C++26; the cells are never const objects.
  const std::atomic_ref ref(const_cast<std::uint64_t&>(cell));
  // kpq-order: relaxed pairs-with none (statistics read of an owner-written
  // cell; see owner_add)
  return ref.load(std::memory_order_relaxed);
}

}  // namespace kpq
