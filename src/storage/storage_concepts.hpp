// The node-storage policy interface.
//
// One storage ships: heap_node_storage — heap nodes, one reclaimer
// retirement per node, a reclaimed node recycled on the retiring thread's
// capped free list and reused by that thread's next alloc() before it calls
// `new`; cached nodes count as live. The interface stays a policy so tests
// can substitute a storage that injects faults (allocation failure, freeing
// instead of recycling) without touching the queue algorithm.
//
// Contract
// --------
// A storage is created per container with (max_threads, accounting), where
// `accounting` is the owning container's mem_tracked mixin (may have a null
// mem_counters sink; storage must route every byte it allocates/frees
// through it so fig10's live-byte counter is exact).
//
//   node_type* n = s.alloc(tid, value, etid, reclaimer);
//       // construct a node before it is published; may throw (bad_alloc),
//       // and then the queue is unchanged (DESIGN.md, "Allocation failure").
//       // `reclaimer` is the container's domain.
//   s.retire(tid, n, reclaimer);
//       // the node was unlinked by the winning head swing and may still be
//       // referenced by in-flight readers: hand it to the reclamation
//       // protocol. Called exactly once per node.
//   s.release(n);
//       // quiescent free (container destructor path): no concurrent reader
//       // can exist, the storage may recycle the memory immediately.
//
// Retire callbacks may touch per-thread storage state without
// synchronization: the reclaimer runs them on the retiring thread, or at
// quiescence (reclaim/reclaimer_concepts.hpp).
//
// `max_alloc_bytes` is the largest single heap allocation one alloc() call
// can perform — the quantity bounded_wf_queue's admission headroom is built
// from. bounded_wf_queue also reads `cache_cap`, the most nodes one thread
// keeps for reuse, for its liveness floor (docs/MEMORY.md §2 has the
// ceiling argument).
//
// Lifetime rule for containers: declare the storage member BEFORE the
// reclaimer member. Node retirements carry a callback into the storage
// object, so the reclaimer (whose destructor drains retired items)
// must be destroyed first.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/wf_node.hpp"
#include "reclaim/reclaimer_concepts.hpp"

namespace kpq {

/// Structural requirements shared by every node storage, checked against a
/// concrete reclaimer domain R (the container knows both types).
template <typename S, typename R>
concept node_storage_for =
    reclaimer_domain<R> &&
    requires(S s, std::uint32_t tid, typename S::value_type v,
             std::int32_t etid, typename S::node_type* n, R& r) {
      typename S::value_type;
      typename S::node_type;
      { s.alloc(tid, std::move(v), etid, r) } ->
          std::same_as<typename S::node_type*>;
      { s.retire(tid, n, r) };
      { s.release(n) };
      { S::max_alloc_bytes } -> std::convertible_to<std::size_t>;
    };

}  // namespace kpq
