#!/usr/bin/env python3
"""Record and compare benchmark baselines (schema kpq-bench-1).

Two subcommands over the figure benches (fig7, fig8, fig10, fig_sharding,
fig_obs_overhead):

  record    Run each bench's sweep with --json and write BENCH_<fig>.json at
            the repo root. These files are the committed baselines.
  compare   Re-run (or take --candidate-dir) and diff against the committed
            baselines, point by point on the primary metric of each series.

  --smoke   Reduced-scale record into a temp dir + schema validation +
            structure-only comparison against the committed baselines (series
            present, schema valid). Used by the CI bench-smoke job, where
            shared-runner timing is too noisy for value comparisons. A
            baseline naming a bench binary the build didn't produce is
            skipped with a warning rather than aborting the whole pass.

Regression policy
-----------------
Two classes of finding, gated differently:

  STRUCTURAL — schema invalid, a series disappeared, a point vanished, or
  the baseline's params no longer match the sweep definition. These are
  deterministic properties of the artifacts, not of machine speed, so they
  ALWAYS exit non-zero (CI hard-fails on them; no flag needed). A changed
  sweep is fixed by re-recording the baseline, not by ignoring it.

  PERF — the primary metric worsened by more than --threshold (default 15%,
  comfortably above the ~3% quiet-machine noise in EXPERIMENTS.md; CI
  runners are far noisier). These WARN by default; pass --fail to turn them
  into a non-zero exit for gating jobs.

Primary metric per point: mean_s (time, lower is better) or mean_bytes
(space, lower is better) — whichever the series carries.

Stdlib only. Examples:
  scripts/bench_record.py record
  scripts/bench_record.py compare
  scripts/bench_record.py compare --candidate-dir /tmp/run2 --fail
  scripts/bench_record.py --smoke
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Sweep definitions: bench binary + args for the committed baseline
# ("record") and for the CI smoke run ("smoke"). Scales are deliberately
# modest — baselines must be reproducible on a small machine.
FIGS = {
    "fig7": {
        "bin": "fig7_enq_deq",
        "record": ["--threads", "4", "--iters", "10000", "--reps", "10",
                   "--pin"],
        "smoke": ["--threads", "2", "--iters", "1000", "--reps", "2"],
    },
    "fig8": {
        "bin": "fig8_fifty_fifty",
        "record": ["--threads", "4", "--iters", "10000", "--reps", "3"],
        "smoke": ["--threads", "2", "--iters", "1000", "--reps", "2"],
    },
    "fig10": {
        "bin": "fig10_space",
        "record": ["--max-size", "100000", "--threads", "1,2,4", "--pin"],
        "smoke": ["--max-size", "1000", "--threads", "1,2,4", "--iters",
                  "500"],
    },
    "fig_sharding": {
        "bin": "fig_sharding",
        "record": ["--threads", "4", "--reps", "10", "--pin"],
        "smoke": ["--threads", "2", "--iters", "1000", "--reps", "2"],
    },
    "fig_obs_overhead": {
        "bin": "fig_obs_overhead",
        "record": ["--threads", "4", "--iters", "5000", "--reps", "3"],
        "smoke": ["--threads", "2", "--iters", "1000", "--reps", "2"],
    },
}

PRIMARY_METRICS = ("mean_s", "mean_bytes", "mean")


def baseline_path(fig, directory):
    return os.path.join(directory, f"BENCH_{fig}.json")


def run_fig(fig, scale, build_dir, out_path):
    """Run one bench sweep; returns the parsed JSON doc, or None when the
    binary is missing on a smoke run (a partial build shouldn't crash the
    whole CI smoke pass — the skip is reported as a warning instead)."""
    spec = FIGS[fig]
    binary = os.path.join(build_dir, "bench", spec["bin"])
    if not os.path.exists(binary):
        if scale == "smoke":
            print(f"warning: [{fig}] bench binary not found: {binary} — "
                  f"skipped (build the '{spec['bin']}' target to cover it)")
            return None
        sys.exit(f"bench binary not found: {binary} (build the repo first)")
    cmd = [binary, *spec[scale], "--json", out_path]
    print(f"[{fig}] {' '.join(cmd)}")
    subprocess.run(cmd, check=True, cwd=REPO,
                   stdout=subprocess.DEVNULL if scale == "smoke" else None)
    with open(out_path) as f:
        doc = json.load(f)
    if doc.get("schema") != "kpq-bench-1":
        sys.exit(f"{out_path}: unexpected schema {doc.get('schema')!r}")
    return doc


def validate(paths):
    subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "validate_bench_json.py"),
         *paths],
        check=True, cwd=REPO)


def load(path):
    with open(path) as f:
        return json.load(f)


def primary_metric(point):
    for key in PRIMARY_METRICS:
        if key in point:
            return key
    return None


def index_points(doc):
    """{series name: {x: point}}"""
    out = {}
    for series in doc.get("series", []):
        out[series["name"]] = {p["x"]: p for p in series.get("points", [])}
    return out


def compare_doc(fig, base, cand, threshold_pct, structural_only):
    """Returns (structural, perf, notes): lists of message strings.
    Structural findings are always fatal to the caller; perf deltas are
    gated behind --fail."""
    structural, perf, notes = [], [], []
    bseries, cseries = index_points(base), index_points(cand)

    for name in bseries:
        if name not in cseries:
            structural.append(f"{fig}: series '{name}' disappeared")
    for name in cseries:
        if name not in bseries:
            notes.append(f"{fig}: new series '{name}' (no baseline)")

    if structural_only:
        # Smoke runs use reduced sweeps: params and x-values legitimately
        # differ from the committed baseline, so the per-point and params
        # checks below don't apply — only series presence (above) and
        # schema validity (validate()) gate the smoke pass.
        return structural, perf, notes

    def stable_params(doc):
        # tick_hz is a per-run TSC estimate, not a sweep parameter — two
        # runs of the same sweep always differ on it.
        return {k: v for k, v in (doc.get("params") or {}).items()
                if k not in ("tick_hz",)}

    if stable_params(base) != stable_params(cand):
        structural.append(
            f"{fig}: params differ from baseline — the sweep definition "
            f"changed, values are not comparable; re-record with "
            f"'scripts/bench_record.py record --figs {fig}'")
        return structural, perf, notes

    for name, bpoints in bseries.items():
        for x, bp in bpoints.items():
            cp = cseries.get(name, {}).get(x)
            if cp is None:
                structural.append(f"{fig}: '{name}' lost point x={x}")
                continue
            key = primary_metric(bp)
            if key is None or key not in cp:
                continue
            bv, cv = bp[key], cp[key]
            if bv <= 0:
                continue
            delta = 100.0 * (cv - bv) / bv
            if delta > threshold_pct:
                perf.append(
                    f"{fig}: '{name}' x={x} {key} {bv:.6g} -> {cv:.6g} "
                    f"(+{delta:.1f}% > {threshold_pct:.0f}%)")
            elif delta < -threshold_pct:
                notes.append(
                    f"{fig}: '{name}' x={x} {key} improved {delta:.1f}%")
    return structural, perf, notes


def cmd_record(args):
    paths = []
    for fig in args.figs:
        path = baseline_path(fig, REPO)
        run_fig(fig, "record", args.build_dir, path)
        paths.append(path)
    validate(paths)
    print(f"recorded baselines: {', '.join(os.path.basename(p) for p in paths)}")


def cmd_compare(args):
    all_structural, all_perf, all_notes = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for fig in args.figs:
            bpath = baseline_path(fig, REPO)
            if not os.path.exists(bpath):
                all_notes.append(f"{fig}: no committed baseline "
                                 f"({os.path.basename(bpath)}) — skipped")
                continue
            if args.candidate_dir:
                cpath = baseline_path(fig, args.candidate_dir)
                if not os.path.exists(cpath):
                    all_structural.append(f"{fig}: candidate missing "
                                          f"{os.path.basename(cpath)}")
                    continue
                cand = load(cpath)
            else:
                cpath = baseline_path(fig, tmp)
                cand = run_fig(fig, "record", args.build_dir, cpath)
            structural, perf, notes = compare_doc(fig, load(bpath), cand,
                                                  args.threshold, False)
            all_structural += structural
            all_perf += perf
            all_notes += notes
    report(all_structural, all_perf, all_notes, args.fail)


def cmd_smoke(args):
    with tempfile.TemporaryDirectory() as tmp:
        covered, paths = [], []
        all_structural, all_perf, all_notes = [], [], []
        for fig in args.figs:
            cpath = baseline_path(fig, tmp)
            cand = run_fig(fig, "smoke", args.build_dir, cpath)
            if cand is None:
                all_notes.append(f"{fig}: bench binary missing — skipped")
                continue
            covered.append(fig)
            paths.append(cpath)
            bpath = baseline_path(fig, REPO)
            if os.path.exists(bpath):
                structural, perf, notes = compare_doc(fig, load(bpath), cand,
                                                      args.threshold,
                                                      structural_only=True)
                all_structural += structural
                all_perf += perf
                all_notes += notes
            else:
                all_notes.append(f"{fig}: no committed baseline — "
                                 f"schema check only")
        if paths:
            validate(paths)
    if covered:
        print("smoke: schema valid for", ", ".join(covered))
    report(all_structural, all_perf, all_notes, args.fail)


def report(structural, perf, notes, fail):
    for n in notes:
        print(f"note: {n}")
    for s in structural:
        print(f"STRUCTURAL: {s}")
    for r in perf:
        print(f"REGRESSION: {r}")
    if structural:
        # Structural breakage is deterministic — never downgraded to a
        # warning, with or without --fail.
        sys.exit(f"{len(structural)} structural failure(s)")
    if perf:
        if fail:
            sys.exit(1)
        print(f"({len(perf)} perf regression(s); warn-only — "
              f"pass --fail to gate)")
    else:
        print("no regressions")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", nargs="?", choices=["record", "compare"],
                    help="record baselines or compare against them")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-scale run + schema/structure check (CI)")
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    ap.add_argument("--figs", default=",".join(FIGS),
                    help=f"comma list from: {','.join(FIGS)}")
    ap.add_argument("--candidate-dir",
                    help="compare: take BENCH_<fig>.json from here instead "
                         "of re-running")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="regression threshold in %% on the primary metric "
                         "(default 15; machine noise is ~3%%)")
    ap.add_argument("--fail", action="store_true",
                    help="exit non-zero on regressions (default: warn)")
    args = ap.parse_args()
    args.figs = [f.strip() for f in args.figs.split(",") if f.strip()]
    for f in args.figs:
        if f not in FIGS:
            sys.exit(f"unknown fig '{f}' (choose from {', '.join(FIGS)})")

    if args.smoke:
        cmd_smoke(args)
    elif args.command == "record":
        cmd_record(args)
    elif args.command == "compare":
        cmd_compare(args)
    else:
        sys.exit("nothing to do: give a command (record|compare) or --smoke")


if __name__ == "__main__":
    main()
