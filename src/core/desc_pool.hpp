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
#include <cstdint>

#include "core/op_desc.hpp"
#include "harness/mem_tracker.hpp"
#include "storage/recycle_list.hpp"

namespace kpq {

/// make(tid, args...) constructs a descriptor, reusing a cached allocation
/// when possible; recycle(tid, d) returns a never-published one. Cached
/// descriptors stay "live" in the accounting (they occupy heap). A disabled
/// pool caches nothing.
template <typename T, bool Stamped = false>
class desc_pool : public recycle_lists<op_desc<T, Stamped>> {
 public:
  using desc_type = op_desc<T, Stamped>;

  desc_pool(std::uint32_t max_threads, bool enabled,
            const mem_tracked* accounting, std::size_t cache_cap = 64)
      : recycle_lists<desc_type>(max_threads, enabled ? cache_cap : 0,
                                 accounting) {}
};

}  // namespace kpq
