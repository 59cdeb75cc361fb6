#!/usr/bin/env python3
"""Validate kpq-trace-1 timeline JSON against scripts/trace_schema.json.

Stdlib only (CI containers have no jsonschema); same draft-07 subset
interpreter as validate_bench_json.py: type, enum, required, properties,
additionalProperties (schema form), items, minItems.

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
import math
import os
import sys

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def check(value, schema, path, errors):
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(TYPE_CHECKS[t](value) for t in types):
            errors.append(f"{path}: expected {'/'.join(types)}, "
                          f"got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path}: missing required key '{req}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                check(sub, props[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                check(sub, extra, f"{path}.{key}", errors)
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{path}: {len(value)} items < "
                          f"minItems {schema['minItems']}")
        items = schema.get("items")
        if isinstance(items, dict):
            for i, sub in enumerate(value):
                check(sub, items, f"{path}[{i}]", errors)
    elif isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{path}: non-finite number {value}")


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
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {path}: {exc}")
            failed = True
            continue
        errors = []
        check(doc, schema, "$", errors)
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
