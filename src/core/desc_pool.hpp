// Per-thread descriptor cache (paper §3.3, first enhancement).
//
// "any update of state is preceded with an allocation of a new operation
//  descriptor. These allocations might be wasteful [...] if the following
//  CAS operation fails [...] This issue can be easily solved by caching
//  allocated descriptors used in unsuccessful CASes and reusing them."
//
// Only descriptors that were *never published* (their installing CAS failed,
// so no other thread can hold a reference) may be recycled here; published
// descriptors go through the reclaimer. Each thread owns its own free list
// (storage/recycle_list.hpp), so the pool needs no synchronization.
#pragma once

#include <cstddef>

#include "core/op_desc.hpp"
#include "storage/recycle_list.hpp"

namespace kpq {

/// Descriptors each thread keeps for reuse; past it a recycled one is freed.
inline constexpr std::size_t desc_cache_cap = 64;

/// make(tid, args...) constructs a descriptor, reusing a cached allocation
/// when possible; recycle(tid, d) returns a never-published one. Cached
/// descriptors stay "live" in the accounting (they occupy heap).
template <typename T>
using desc_pool = recycle_lists<op_desc<T>>;

}  // namespace kpq
