#!/usr/bin/env bash
# Run the test suite under sanitizers. Both configs must be 100% green; TSan
# is the one that caught the port's only genuine reclamation bug (see
# DESIGN.md, "Port findings").
#
# Usage:
#   scripts/sanitize.sh [mode ...] [-- ctest-args ...]
#
#   scripts/sanitize.sh                          # ASan+UBSan and TSan, all tests
#   scripts/sanitize.sh thread                   # TSan only, all tests
#   scripts/sanitize.sh thread -- -R 'Sharded'   # TSan, filtered ctest run
#   scripts/sanitize.sh tsan-core                # TSan over the core queue
#                                                # (paper variants and FPS),
#                                                # the sharded front-end and
#                                                # the hazard pointers
#   scripts/sanitize.sh tsan-storage             # TSan, storage-layer suites
#                                                # (node recycling, allocation
#                                                # failure, the bounded
#                                                # queue's policies)
#   scripts/sanitize.sh tsan-async               # TSan over the continuation
#                                                # layer and the coroutine
#                                                # front-end
#
# Every TSan shortcut builds in build-thread-san, like plain `thread`: they
# differ only in the ctest filter.
set -euo pipefail
cd "$(dirname "$0")/.."

modes=()
while [[ $# -gt 0 && "$1" != "--" ]]; do
  modes+=("$1")
  shift
done
[[ $# -gt 0 ]] && shift  # drop the --
ctest_args=("$@")
[[ ${#modes[@]} -eq 0 ]] && modes=(address thread)

for mode in "${modes[@]}"; do
  filter=()
  if [[ "$mode" == "tsan-core" ]]; then
    # Shortcut: TSan over the one KP core — the paper variants and the FPS
    # fast-path policy share the slow path, so FPS workloads drive the same
    # helping code — plus the sharded front-end built on it and the
    # hazard-pointer domain every KP operation protects through. The trace
    # writes race-check in the Obs suites (ObsTracedQueue traces opt and
    # FPS runs).
    mode=thread
    filter=(-R 'Wf|Sharded|Help|Phase|RecordIdentity|Figure|Fps|Progress|Interleave|Random|Baton|Audit|Sweep|EmptyDequeue|HpFixture')
  elif [[ "$mode" == "tsan-storage" ]]; then
    # Shortcut: TSan over every suite that exercises src/storage/ — the
    # bounded-policy tests, allocation failure (tests/support/
    # fault_storage.hpp) and the freed-node random-schedule fuzz built on
    # it, live-byte accounting, the reclaimers' callback-thread contract,
    # and heap-node recycling (a recycled node never passes through free(),
    # so TSan sees its old and new uses ordered only by the reclaimer's
    # handoff and, when a full list moves to another thread's inbox, by the
    # inbox's release CAS and acquire exchange).
    mode=thread
    filter=(-R 'Bounded|AllocFailure|Freeing|MemAccounting|Reclaim|ReclaimCounters|NodeRecycling|RecycleLists')
  elif [[ "$mode" == "tsan-async" ]]; then
    # Shortcut: TSan over the waiter_hub continuation layer and everything
    # built on it — coroutine resumers (awaitables, select, cancellation,
    # the broker example) and the event loop (its sleep and timers).
    mode=thread
    filter=(-R 'Async|Waiter|EventLoop|Task\.|coro_broker')
  fi
  echo "=== sanitizer: $mode (build-$mode-san) ==="
  cmake -B "build-$mode-san" -G Ninja -DKPQ_SANITIZE="$mode"
  cmake --build "build-$mode-san"
  ctest --test-dir "build-$mode-san" --output-on-failure \
    ${filter[@]+"${filter[@]}"} ${ctest_args[@]+"${ctest_args[@]}"}
done
