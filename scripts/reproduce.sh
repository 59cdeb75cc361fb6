#!/usr/bin/env bash
# Full reproduction run: configure, build, test, regenerate every paper
# figure and every beyond-paper bench. Outputs land in test_output.txt and
# bench_output.txt at the repo root.
#
# Usage:
#   scripts/reproduce.sh              # CI-scale defaults (minutes)
#   KPQ_PAPER_SCALE=1 scripts/reproduce.sh   # paper-scale iteration counts
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

EXTRA=()
if [[ "${KPQ_PAPER_SCALE:-0}" == "1" ]]; then
  # The paper: 1,000,000 iterations/thread, 10 repetitions, threads 1..16.
  EXTRA=(--iters 1000000 --reps 10 --full)
  echo "Running at PAPER SCALE; expect hours on small machines." >&2
fi

{
  for b in build/bench/*; do
    echo "=== $(basename "$b") ==="
    case "$(basename "$b")" in
      fig7_enq_deq|fig8_fifty_fifty)
        "$b" "${EXTRA[@]}" ;;
      *)
        "$b" ;;
    esac
    echo
  done
} 2>&1 | tee bench_output.txt
