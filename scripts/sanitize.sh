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
#   scripts/sanitize.sh tsan-core                # TSan + KPQ_TRACE=ON over
#                                                # the core queue (paper
#                                                # variants and FPS), the
#                                                # sharded front-end and
#                                                # the hazard pointers
#   scripts/sanitize.sh tsan-storage             # TSan, storage-layer suites
#                                                # (node recycling, allocation
#                                                # failure, the bounded
#                                                # queue's policies)
#   scripts/sanitize.sh tsan-async               # TSan + KPQ_TRACE=ON over
#                                                # the continuation layer and
#                                                # the coroutine front-end
#   scripts/sanitize.sh tsan-obs-pipeline        # TSan + KPQ_TRACE=ON over
#                                                # the latency pipeline
#                                                # (timeline, telemetry
#                                                # pump, flight recorder)
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
  extra_cmake=()
  dir_tag="$mode"
  if [[ "$mode" == "tsan-core" ]]; then
    # Shortcut: TSan over the one KP core — the paper variants and the FPS
    # fast-path policy share the slow path, so FPS workloads drive the same
    # helping code — plus the sharded front-end built on it and the
    # hazard-pointer domain every KP operation protects through. Built with
    # KPQ_TRACE=ON so the slow-path and help-episode trace writes race-check
    # under every workload (own build dir: the tracing default changes
    # codegen everywhere).
    mode=thread
    dir_tag=core
    extra_cmake=(-DKPQ_TRACE=ON)
    filter=(-R 'Wf|Sharded|Bulk|Help|Phase|RecordIdentity|Figure|Fps|Progress|Interleave|Random|Baton|Audit|Sweep|EmptyDequeue|Blocking|HpFixture')
  elif [[ "$mode" == "tsan-storage" ]]; then
    # Shortcut: TSan over every suite that exercises src/storage/ — the
    # bounded-policy tests, allocation failure (tests/support/
    # fault_storage.hpp) and the freed-node random-schedule fuzz built on
    # it, live-byte accounting, the reclaimers' callback-thread contract,
    # and heap-node recycling (a recycled node never passes through free(),
    # so TSan sees its old and new uses ordered only by the reclaimer's
    # handoff).
    mode=thread
    dir_tag=thread
    filter=(-R 'Bounded|AllocFailure|Freeing|MemAccounting|Reclaim|ReclaimCounters|NodeRecycling|RecycleLists')
  elif [[ "$mode" == "tsan-async" ]]; then
    # Shortcut: TSan over the waiter_hub continuation layer and everything
    # rebuilt on it — thread parkers (blocking_adapter, the bounded queue's
    # block policy and its lost-wakeup regressions) and coroutine resumers
    # (event loop, awaitables, select, cancellation, the broker example).
    # Built with KPQ_TRACE=ON so the waiter_park/waiter_resume trace writes
    # race-check against the hub's notify path (own build dir: the tracing
    # default changes codegen everywhere).
    mode=thread
    dir_tag=async
    extra_cmake=(-DKPQ_TRACE=ON)
    filter=(-R 'Async|Waiter|Parker|EventLoop|TimerWheel|Task\.|BoundedWakeup|Blocking|coro_broker')
  elif [[ "$mode" == "tsan-obs-pipeline" ]]; then
    # Shortcut: TSan over the end-to-end latency pipeline — the telemetry
    # pump's concurrent registry scrapes against worker mutation, the
    # flight recorder (including the crash child), timeline conversion, and
    # the broker's --telemetry mode.
    # Built with KPQ_TRACE=ON so pump scrapes race-check against live ring
    # writes (own build dir: the tracing default changes codegen everywhere).
    mode=thread
    dir_tag=obs-pipeline
    extra_cmake=(-DKPQ_TRACE=ON)
    filter=(-R 'ObsTelemetry|ObsFlight|ObsTimeline|ObsExport|EventLoop|coro_broker_telemetry')
  fi
  echo "=== sanitizer: $mode (build-$dir_tag-san) ==="
  cmake -B "build-$dir_tag-san" -G Ninja -DKPQ_SANITIZE="$mode" \
    ${extra_cmake[@]+"${extra_cmake[@]}"}
  cmake --build "build-$dir_tag-san"
  ctest --test-dir "build-$dir_tag-san" --output-on-failure \
    ${filter[@]+"${filter[@]}"} ${ctest_args[@]+"${ctest_args[@]}"}
done
