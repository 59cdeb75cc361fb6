#!/usr/bin/env python3
"""Validate kpq-trace-1 timeline JSON against scripts/trace_schema.json.

Stdlib only (CI containers have no jsonschema); the schema check is
validate_bench_json.py's draft-07 subset interpreter, imported from there.

On top of the schema, this checks the trace-event semantics the schema
language cannot express:

  * every "X" slice carries ts and a non-negative dur;
  * flow arrows pair up: each "s" (flow start) has an "f" (flow end) with
    the same id, and vice versa;
  * with --require-flow, at least one complete s/f pair must exist (CI uses
    this on `fig_obs_overhead --timeline` output so the helper->helped arrow
    path cannot silently regress).

Usage: validate_trace_json.py [--schema SCHEMA] [--require-flow] FILE ...
Exit status 0 iff every file validates.
"""

import argparse
import json
import os
import sys

from validate_bench_json import validate_file


def check_semantics(doc, require_flow, errors):
    events = doc.get("traceEvents", [])
    starts, ends = {}, {}
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            continue
        ph = e.get("ph")
        path = f"$.traceEvents[{i}]"
        if ph == "X":
            if "ts" not in e or "dur" not in e:
                errors.append(f"{path}: 'X' slice needs ts and dur")
            elif e["dur"] < 0:
                errors.append(f"{path}: negative dur {e['dur']}")
        elif ph in ("s", "f"):
            if "id" not in e:
                errors.append(f"{path}: flow event needs an id")
                continue
            (starts if ph == "s" else ends).setdefault(e["id"], []).append(i)
    for fid, idxs in starts.items():
        if fid not in ends:
            errors.append(f"flow id {fid}: 's' at index {idxs[0]} has no 'f'")
    for fid, idxs in ends.items():
        if fid not in starts:
            errors.append(f"flow id {fid}: 'f' at index {idxs[0]} has no 's'")
    pairs = sum(1 for fid in starts if fid in ends)
    if require_flow and pairs == 0:
        errors.append("--require-flow: no complete s/f flow-arrow pair "
                      "(the helper->helped causality path emitted none)")
    return pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schema",
                        default=os.path.join(os.path.dirname(__file__),
                                             "trace_schema.json"))
    parser.add_argument("--require-flow", action="store_true",
                        help="fail unless >=1 complete s/f flow pair exists")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    with open(args.schema) as f:
        schema = json.load(f)

    failed = False
    for path in args.files:
        doc, errors = validate_file(path, schema)
        if doc is None:
            print(f"FAIL {path}: {errors[0]}")
            failed = True
            continue
        pairs = check_semantics(doc, args.require_flow, errors)
        if errors:
            failed = True
            print(f"FAIL {path}:")
            for err in errors[:20]:
                print(f"  {err}")
            if len(errors) > 20:
                print(f"  ... and {len(errors) - 20} more")
        else:
            n = len(doc.get("traceEvents", []))
            print(f"OK   {path} ({n} events, {pairs} flow pairs)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
