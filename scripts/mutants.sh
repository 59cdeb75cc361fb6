#!/usr/bin/env bash
# Mutation check (docs/TESTING.md, "Mutation check"). Each
# tests/mutants/NN-<name>.patch deletes one condition from the queue or its
# record load, from the coroutine layer's claim or from the event loop's
# post(). For every
# patch the script applies it to a scratch copy of the tree under $TMPDIR
# (never the work tree), builds
# the explorer, replay and async suites, runs them, and compares the
# outcome with the patch's header:
#
#   # build: release            (or: address, or: release address)
#   # expect: survives          (or: # expect: Suite.Test)
#
# `release` is a -DCMAKE_BUILD_TYPE=Release build; `address` builds the way
# `scripts/sanitize.sh address` does (ASan+UBSan, asserts on). `survives`
# means every test passes with no sanitizer report; `Suite.Test` means that
# test fails, crashes or times out. Before the patches, the unpatched copy
# must pass under every build mode the patches use.
#
# Exits non-zero when an outcome differs from its header or a patch does
# not apply.
#
# Usage:
#   scripts/mutants.sh                      # every tests/mutants/*.patch
#   scripts/mutants.sh tests/mutants/03-*.patch
#
# Environment: TMPDIR (scratch root), CMAKE_BUILD_PARALLEL_LEVEL (build
# jobs). A test binary that runs longer than 30 minutes counts as failed.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

suites=(core_scenario_test core_interleave_test core_fps_interleave_test
        core_random_schedule_test scale_random_schedule_test
        async_loop_test async_cancel_test async_queue_test)

patches=()
for p in "$@"; do patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")"); done
if [[ ${#patches[@]} -eq 0 ]]; then
  patches=("$root"/tests/mutants/*.patch)
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/kpq-mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
echo "scratch copy: $work/tree"

# The tree as it stands, uncommitted edits included.
mkdir "$work/tree"
git -C "$root" ls-files -z --cached --others --exclude-standard |
  (cd "$root" && tar --null --ignore-failed-read -T - -cf - 2>/dev/null) |
  tar -xf - -C "$work/tree"
git -C "$work/tree" init -q  # so that `git apply` patches this copy only

header() {  # header <patch> <key>: the value of its "# key:" line
  sed -n "/^# $2: */{s///p;q}" "$1"
}

build() {  # build <mode>: configure once, rebuild the suites
  local dir="$work/build-$1"
  if [[ ! -f "$dir/build.ninja" ]]; then
    case "$1" in
      release) cmake -S "$work/tree" -B "$dir" -G Ninja \
                 -DCMAKE_BUILD_TYPE=Release >/dev/null ;;
      address) cmake -S "$work/tree" -B "$dir" -G Ninja \
                 -DKPQ_SANITIZE=address >/dev/null ;;
      *) echo "unknown build mode '$1'" >&2; return 1 ;;
    esac
  fi
  cmake --build "$dir" --target "${suites[@]}" >"$work/build.log" 2>&1 || {
    tail -n 40 "$work/build.log" >&2
    return 1
  }
}

# run <mode>: run every suite; print each test that did not finish OK (a
# failure, a sanitizer abort or a timeout), in run order, then a line
# "detail: ..." with the first schedule or seed a failure message names.
run() {
  local dir="$work/build-$1" b log rc failed
  for b in "${suites[@]}"; do
    log="$work/$b.log"
    rc=0
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      timeout 1800 "$dir/tests/$b" >"$log" 2>&1 || rc=$?
    # A test that started but printed no OK line did not pass.
    failed="$(awk '/^\[ RUN      \] /{run[$4]=1; order[++n]=$4}
                   /^\[       OK \] /{delete run[$4]}
                   END{for(i=1;i<=n;i++) if(order[i] in run) print order[i]}' \
              "$log")"
    [[ -n "$failed" ]] && echo "$failed"
    # e.g. a leak report after every test passed
    [[ $rc -ne 0 && -z "$failed" ]] && echo "$b:exit-$rc"
  done
  for b in "${suites[@]}"; do cat "$work/$b.log"; done |
    grep -o -m 1 -E '#[0-9]+\)|seed [0-9]+' | sed 's/^/detail: /;s/)$//' ||
    true
}

# The control: the unpatched copy must pass in every mode a patch uses.
modes=()
for p in "${patches[@]}"; do
  for m in $(header "$p" build); do
    [[ " ${modes[*]} " == *" $m "* ]] || modes+=("$m")
  done
done
for m in "${modes[@]}"; do
  echo "=== control ($m) ==="
  build "$m"
  out="$(run "$m")"
  if grep -v '^detail: ' <<<"$out" | grep -q .; then
    echo "the unpatched tree fails under $m:" >&2
    echo "$out" >&2
    exit 1
  fi
done

mismatches=0
for p in "${patches[@]}"; do
  name="$(basename "$p" .patch)"
  expect="$(header "$p" expect)"
  mode_list="$(header "$p" build)"
  if [[ -z "$expect" || -z "$mode_list" ]]; then
    echo "MISMATCH $name: missing '# build:' or '# expect:' header"
    mismatches=$((mismatches + 1))
    continue
  fi
  if ! git -C "$work/tree" apply --check "$p"; then
    echo "MISMATCH $name: the patch no longer applies"
    mismatches=$((mismatches + 1))
    continue
  fi
  git -C "$work/tree" apply "$p"
  for m in $mode_list; do
    build "$m"
    out="$(run "$m")"
    failed="$(grep -v -e '^detail: ' -e '^$' <<<"$out" || true)"
    detail="$(sed -n 's/^detail: //p' <<<"$out")"
    if [[ -z "$failed" ]]; then
      got=survives
      ok=$([[ "$expect" == survives ]] && echo 1 || echo 0)
    else
      got="killed by $(head -n 1 <<<"$failed")"
      [[ -n "$detail" ]] && got="$got ($detail)"
      ok=$(grep -qxF "$expect" <<<"$failed" && echo 1 || echo 0)
    fi
    if [[ "$ok" == 1 ]]; then
      echo "ok       $name [$m]: $got"
    else
      echo "MISMATCH $name [$m]: expected '$expect', got $got"
      mismatches=$((mismatches + 1))
    fi
    if [[ -n "$failed" ]]; then
      echo "         failing: $(tr '\n' ' ' <<<"$failed")"
    fi
  done
  git -C "$work/tree" apply -R "$p"
done

if [[ $mismatches -ne 0 ]]; then
  echo "$mismatches mutant outcome(s) differ from their patch headers" >&2
  exit 1
fi
echo "every mutant outcome matches its patch header"
