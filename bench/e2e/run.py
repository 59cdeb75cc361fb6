#!/usr/bin/env python3
"""kpqbench driver: build bench/e2e, run each (workload, queue) cell in a
fresh process, check correctness, and print every metric with its unit and
sample count. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

  python3 bench/e2e/run.py [--workload W] [--seed N] [--seconds S]
                           [--trace 0|1] [--repeats N] [--out FILE]
                           [--trace-dir DIR]
  python3 bench/e2e/run.py compare A.json B.json
  python3 bench/e2e/run.py --selftest

Without --workload every workload runs in turn. --trace 0 (default) reports
the end-to-end metrics of BENCHMARK.json; --trace 1 runs the same cells
untraced and traced, plus the layer probes, and reports the per-layer
metrics. --seconds is the measured time of one workload run, split evenly
over its cells. See bench/e2e/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
QUEUES = ("opt", "fps")
CELLS_PER_QUEUE = 6  # fresh-process cells per queue in one untraced run
WARMUP_MS = 500
CELL_SLACK_S = 90  # beyond its measured time, a cell must finish within this


class BenchError(Exception):
    pass


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(xs):
    return statistics.median(xs) if xs else 0.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ------------------------------------------------------------------- build

def build():
    """Configures (once) and builds kpqbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"library sources not found under {ROOT}/src; "
                         "run from a full checkout of the repository")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target if target.is_absolute() else ROOT / target) / "kpqbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir


def invoke(exe, args, timeout_s):
    """Runs one kpqbench process and returns its JSON line."""
    try:
        p = subprocess.run([str(exe / "kpqbench")] + args, capture_output=True,
                           text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise BenchError(f"kpqbench {' '.join(args)}: no result within "
                         f"{timeout_s:.0f} s (killed)")
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError(f"kpqbench {' '.join(args)} exited {p.returncode}: "
                         f"{p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def cell(exe, workload, queue, seed, measure_s, warmup_ms=WARMUP_MS,
         traced=False, trace_out=None):
    args = ["cell", "--workload", workload, "--queue", queue, "--seed",
            str(seed), "--measure-ms", str(int(measure_s * 1000)),
            "--warmup-ms", str(warmup_ms)]
    if traced:
        args.append("--traced")
        if trace_out:
            args += ["--trace-out", str(trace_out)]
    return invoke(exe, args, measure_s + warmup_ms / 1000 + CELL_SLACK_S)


def cell_order(seed):
    """Cell sequence of one untraced run: CELLS_PER_QUEUE rounds in ABBA
    order, so slow host drift hits both queues alike; the starting queue
    alternates between consecutive seeds (repeats use consecutive seeds)."""
    first = QUEUES if seed % 2 == 0 else QUEUES[::-1]
    order = []
    for k in range(CELLS_PER_QUEUE):
        order += first if k % 2 == 0 else first[::-1]
    return order


# ----------------------------------------------------------------- metrics

def e2e_metrics(cells):
    """{name: (value, samples)} of the end-to-end metrics of one run, from
    {queue: [cell, ...]}: latency quantiles pool the queue's cells, the
    other metrics are medians over them; sample counts are totals."""
    def med(q, f):
        return median([f(c) for c in cells[q]])

    def total(q, f):
        return sum(f(c) for c in cells[q])

    m = {"setup_s": (sum(med(q, lambda c: c["setup_s"]) for q in cells),
                     sum(len(cs) for cs in cells.values()))}
    for q in cells:
        n = total(q, lambda c: c["latency"]["n"])
        m[f"throughput_mops.{q}"] = (
            med(q, lambda c: c["completed"] / c["window_s"] / 1e6),
            total(q, lambda c: c["completed"]))
        m[f"latency_p90_ns.{q}"] = (pooled_quantile(cells[q], 0.9), n)
        m[f"peak_rss_mib.{q}"] = (med(q, lambda c: c["peak_rss_mib"]),
                                  len(cells[q]))
    return m


def ratio(a, b):
    return a / b if b else 0.0


SUB_BUCKETS = 128  # histogram::sub_count in histogram.hpp


def bucket_mid(i):
    """Midpoint, in ticks, of histogram bucket i (as histogram::quantile)."""
    shift = 0 if i < 2 * SUB_BUCKETS else i // SUB_BUCKETS - 1
    lower = (i - shift * SUB_BUCKETS) << shift
    return lower + ((1 << shift) - 1) // 2


def pooled_quantile(cells, q):
    """Nearest-rank quantile, in ns, of the union of the cells' latency
    samples. Pooling keeps a run's quantile steady when single cells settle
    in different modes, where a median over cells would jump between them."""
    counts = {}
    for c in cells:
        for i, n in c["latency"]["buckets"]:
            counts[i] = counts.get(i, 0) + n
    total = sum(counts.values())
    if total == 0:
        return 0.0
    lo = min(c["latency"]["min_ns"] for c in cells if c["latency"]["n"])
    hi = max(c["latency"]["max_ns"] for c in cells)
    rank = min(max(math.ceil(q * total), 1), total)
    if rank == 1:
        return lo
    if rank == total:
        return hi
    ns_per_tick = median([c["ns_per_tick"] for c in cells])
    seen = 0
    for i in sorted(counts):
        seen += counts[i]
        if seen >= rank:
            return min(max(bucket_mid(i) * ns_per_tick, lo), hi)
    return hi


def layer_metrics(untraced, traced, probes):
    """{name: (value, samples)} of the per-layer metrics of one traced run."""
    m = {}
    for q in QUEUES:
        t, u, ctr = traced[q], untraced[q], traced[q]["counters"]
        for side in ("enq", "deq"):
            for p in ("p50", "p99"):
                m[f"core.{side}_ns_{p}.{q}"] = (t[side][f"{p}_ns"], t[side]["n"])
        m[f"core.op_ns_p999.{q}"] = (t["ops"]["p999_ns"], t["ops"]["n"])
        m[f"core.op_ns_max.{q}"] = (t["ops"]["max_ns"], t["ops"]["n"])
        m[f"core.empty_deq_share.{q}"] = (ratio(t["empty_deqs"], t["deq_calls"]),
                                          t["deq_calls"])
        m[f"reclaim.retired_per_op.{q}"] = (ratio(ctr["retired"], ctr["ops"]),
                                            ctr["ops"])
        m[f"reclaim.freed_share.{q}"] = (ratio(ctr["freed"], ctr["retired"]),
                                         ctr["retired"])
        m[f"reclaim.pending_end.{q}"] = (ctr["pending"], 1)
        for k in ("rss_bytes_per_item", "prefill_ns_per_item"):
            m[f"storage.{k}.{q}"] = (probes[q][k], probes[q]["items"])
        tput_u = u["completed"] / u["window_s"]
        tput_t = t["completed"] / t["window_s"]
        m[f"bench.trace_overhead_pct.{q}"] = (100 * ratio(tput_u - tput_t, tput_u),
                                              u["completed"] + t["completed"])
    ctr = traced["opt"]["counters"]
    for k in ("helps", "link_cas_fail", "desc_cas_fail"):
        m[f"core.{k}_per_op.opt"] = (ratio(ctr[k], ctr["ops"]), ctr["ops"])
    ctr = traced["fps"]["counters"]
    m["core.slow_path_share.fps"] = (ratio(ctr["slow"], ctr["ops"]), ctr["ops"])
    for rung, ns in probes["ladder"].items():
        if rung not in ("probe", "failed"):
            m[f"ladder.{rung}_ns_per_op"] = (ns, 3)
    m["bench.timer_ns"] = (median([c["timer_ns"] for c in traced.values()]),
                           len(traced))
    return m


def diagnostics(workload, untraced, traced):
    """Workload-specific numbers: printed and saved, not in BENCHMARK.json
    (its per-layer metrics must exist on every workload). `untraced` maps
    each queue to its cells; `traced` (None on an untraced run) to one cell."""
    d = {}
    for q in QUEUES:
        for p, frac in (("p50", 0.5), ("p99", 0.99), ("p999", 0.999)):
            d[f"latency_{p}_ns.{q}"] = pooled_quantile(untraced[q], frac)
    if workload == "pipeline":
        every = [c for cs in untraced.values() for c in cs]
        d["bench.gen_late_p99_ns"] = median([c["gen_late"]["p99_ns"]
                                             for c in every])
        d["bench.gen_late_max_ns"] = max(c["gen_late"]["max_ns"] for c in every)
        if traced:
            for q in QUEUES:
                d[f"bench.backlog_max.{q}"] = traced[q]["backlog_max"]
    if workload == "broker" and traced:
        d.update(traced["opt"]["diag"])
    return d


def select(spec_metrics, measured):
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    out = {}
    for s in spec_metrics:
        if s["name"] not in measured:
            raise BenchError(f"BENCHMARK.json lists {s['name']}, which the "
                             "benchmark does not measure")
        value, samples = measured[s["name"]]
        out[s["name"]] = {"value": value, "unit": s["unit"], "samples": samples}
    return out


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


# --------------------------------------------------------------------- run

def run_workload(exe, spec, workload, seed, seconds, trace, trace_dir):
    """One run of one workload; returns its record."""
    order = cell_order(seed)
    failures = {}
    attempted = 0

    def take(c):
        nonlocal attempted
        attempted += c["attempted"]
        for k, v in c["failures"].items():
            failures[k] = failures.get(k, 0) + v
        return c

    if not trace:
        cells = {q: [] for q in QUEUES}
        for q in order:
            cells[q].append(take(cell(exe, workload, q, seed,
                                      seconds / len(order))))
        metrics = select(spec["end_to_end"], e2e_metrics(cells))
        diag = diagnostics(workload, cells, None)
    else:
        # One untraced and one traced cell per queue: the pair gives the
        # tracing overhead, the traced cell the per-layer numbers.
        trace_dir.mkdir(parents=True, exist_ok=True)
        order = order[:len(QUEUES)]
        untraced, traced = {}, {}
        share = seconds / (2 * len(order))
        for q in order:
            untraced[q] = take(cell(exe, workload, q, seed, share))
            traced[q] = take(cell(exe, workload, q, seed, share, traced=True,
                                  trace_out=trace_dir / f"{workload}-{q}.json"))
        probes = {q: invoke(exe, ["probe", "--kind", "storage", "--queue", q],
                            120) for q in QUEUES}
        probes["ladder"] = invoke(exe, ["probe", "--kind", "ladder", "--seed",
                                        str(seed)], 150)
        failures["ladder"] = probes["ladder"]["failed"]
        metrics = select(spec["per_layer"],
                         layer_metrics(untraced, traced, probes))
        diag = diagnostics(workload, {q: [c] for q, c in untraced.items()},
                           traced)
    failed = sum(failures.values())
    return {"workload": workload, "seed": seed, "order": list(order),
            "trace": trace, "seconds": seconds, "attempted": attempted,
            "failed": failed, "failures": failures, "metrics": metrics,
            "diagnostics": diag}


def print_run(rec):
    print(f"kpqbench {rec['workload']}  seed={rec['seed']}  "
          f"seconds={rec['seconds']}  trace={int(rec['trace'])}  "
          f"cells={','.join(rec['order'])} (fresh process each)")
    for name, m in rec["metrics"].items():
        print(f"  {name:34} {fmt(m['value']):>14} {m['unit']:8} "
              f"(n={m['samples']})")
    for name, v in rec["diagnostics"].items():
        print(f"  {name:34} {fmt(v):>14} {'':8} (diagnostic)")
    print(f"  {'ops_attempted':34} {rec['attempted']:>14}")
    print(f"  {'ops_failed':34} {rec['failed']:>14}"
          + ("" if rec["failed"] == 0 else f"  {rec['failures']}"))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(spec, runs):
    bounds = {s["name"]: s for s in spec["end_to_end"] + spec["per_layer"]}
    out = {}
    for name in runs[0]["metrics"]:
        xs = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = quartiles(xs)
        s = bounds[name]
        out[name] = {"unit": s["unit"], "better": s["better"],
                     "bound": s.get("bound"), "median": q2, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / q2 if q2 else 0.0, "values": xs}
    return out


def host_info():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpus": len(os.sched_getaffinity(0)), "cpu_model": model}


def main_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    for w in workloads:
        if w not in names:
            raise BenchError(f"unknown workload {w!r}; "
                             f"BENCHMARK.json has {names}")
    exe = build()
    trace_dir = Path(args.trace_dir) if args.trace_dir else exe / "traces"
    results = {"schema": "kpqbench-results-1", "host": host_info(),
               "seconds": args.seconds, "trace": args.trace,
               "repeats": args.repeats, "workloads": {}}
    final = {}
    attempted = failed = 0
    for w in workloads:
        runs = []
        for r in range(args.repeats):
            rec = run_workload(exe, spec, w, args.seed + r, args.seconds,
                               args.trace, trace_dir)
            print_run(rec)
            runs.append(rec)
            attempted += rec["attempted"]
            failed += rec["failed"]
        summary = summarize(spec, runs)
        results["workloads"][w] = {"runs": runs, "summary": summary}
        if args.repeats > 1:
            print(f"kpqbench {w}: median [q1, q3] over {args.repeats} runs")
            for name, s in summary.items():
                print(f"  {name:34} {fmt(s['median']):>14} {s['unit']:8} "
                      f"[{fmt(s['q1'])}, {fmt(s['q3'])}] "
                      f"spread {100 * s['spread']:.2f}%")
        prefix = "" if len(workloads) == 1 else f"{w}/"
        for name, s in summary.items():
            final[prefix + name] = {"value": s["median"], "unit": s["unit"]}
    out = Path(args.out) if args.out else exe / "results" / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    log(f"results written to {out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------- compare

def compare(path_a, path_b):
    """Applies each metric's bound to two result files (A = base, B = new)."""
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressed = 0
    print(f"{'workload':11} {'metric':28} {'median A':>12} {'median B':>12} "
          f"{'change':>8} {'spread A/B':>13} {'bound':>6}  verdict")
    for w in a:
        if w not in b:
            continue
        for s in spec["end_to_end"]:
            name = s["name"]
            if name not in a[w]["summary"] or name not in b[w]["summary"]:
                continue
            sa, sb = a[w]["summary"][name], b[w]["summary"][name]
            sign = 1 if s["better"] == "lower" else -1
            worse = sign * (sb["median"] - sa["median"]) / sa["median"]
            spread = max(sa["spread"], sb["spread"])
            if sign > 0:
                all_better = max(sb["values"]) < min(sa["values"])
            else:
                all_better = min(sb["values"]) > max(sa["values"])
            if spread > s["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > s["bound"]:
                verdict = "REGRESSED"
                regressed += 1
            elif worse < -s["bound"] or (spread > s["bound"] and all_better):
                verdict = "improved"
            else:
                verdict = "within bound"
            print(f"{w:11} {name:28} {fmt(sa['median']):>12} "
                  f"{fmt(sb['median']):>12} {100 * sign * worse:+7.2f}% "
                  f"{100 * sa['spread']:5.1f}/{100 * sb['spread']:<5.1f}% "
                  f"{100 * s['bound']:5.0f}%  {verdict}")
    return 1 if regressed else 0


# ---------------------------------------------------------------- selftest

def check_trace(path):
    """The trace parses, and every flow id has exactly one start and end."""
    doc = json.loads(Path(path).read_text())
    ends = {}
    for e in doc["traceEvents"]:
        if e["ph"] in ("s", "f"):
            ends.setdefault(e["id"], []).append(e["ph"])
    bad = [i for i, v in ends.items() if sorted(v) != ["f", "s"]]
    if bad:
        raise BenchError(f"{path}: flow ids without both ends: {bad[:5]}")
    return len(ends)


def selftest():
    exe = build()
    p = subprocess.run([str(exe / "kpqbench"), "selftest"])
    if p.returncode != 0:
        raise BenchError("kpqbench selftest failed")
    tmp = exe / "selftest"
    tmp.mkdir(exist_ok=True)
    for w in [s["name"] for s in load_spec()["workloads"]]:
        for q in QUEUES:
            for traced in (False, True):
                out = tmp / f"{w}-{q}.json"
                c = cell(exe, w, q, 7, 0.5, warmup_ms=200, traced=traced,
                         trace_out=out)
                if c["failed"]:
                    raise BenchError(f"smoke {w}/{q}: {c['failures']}")
                flows = check_trace(out) if traced else 0
                # In fifty_deep an item's enqueue and dequeue are ~1M calls
                # apart, beyond the span rings, so it has no arrows.
                if traced and flows == 0 and w != "fifty_deep":
                    raise BenchError(f"smoke {w}/{q}: trace has no arrows")
                print(f"ok   smoke {w:10} {q} traced={int(traced)} "
                      f"completed={c['completed']} flows={flows}")
    print("run.py selftest: ok")
    return 0


def main():
    argv = sys.argv[1:]
    try:
        if argv and argv[0] == "compare":
            if len(argv) != 3:
                raise BenchError("usage: run.py compare A.json B.json")
            return compare(argv[1], argv[2])
        ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        ap.add_argument("--workload")
        ap.add_argument("--seed", type=int, default=1)
        ap.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload run "
                             "(default: run_seconds of BENCHMARK.json)")
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        ap.add_argument("--repeats", type=int, default=1)
        ap.add_argument("--out", help="results JSON (default: in the build dir)")
        ap.add_argument("--trace-dir", help="where traced cells write traces")
        ap.add_argument("--selftest", action="store_true")
        args = ap.parse_args(argv)
        if args.selftest:
            return selftest()
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.repeats < 1 or args.seconds <= 0:
            raise BenchError("--repeats and --seconds must be positive")
        return main_run(args)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError) as e:
        log(f"kpqbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
