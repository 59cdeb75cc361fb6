#!/usr/bin/env python3
"""Validate bench --json output against scripts/bench_schema.json.

Stdlib only (CI containers have no jsonschema). Implements the small
draft-07 subset the schema actually uses: type, enum, required,
properties, additionalProperties (schema form), items, minItems.

Usage: validate_bench_json.py [--schema SCHEMA] FILE [FILE ...]
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
        # The exporters sanitize non-finite values to 0; a nan/inf leaking
        # through is a bug even where the schema just says "number".
        errors.append(f"{path}: non-finite number {value}")


def validate_file(path, schema):
    """Parse `path` and check it against `schema`: (doc, errors), where doc
    is None when the file does not parse."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, [f"$: cannot parse: {e}"]
    errors = []
    check(doc, schema, "$", errors)
    return doc, errors


def main():
    default_schema = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "bench_schema.json")
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--schema", default=default_schema)
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()

    with open(args.schema, encoding="utf-8") as f:
        schema = json.load(f)

    ok = True
    for path in args.files:
        _, errors = validate_file(path, schema)
        if errors:
            ok = False
            print(f"FAIL {path}")
            for e in errors:
                print(f"  {e}")
        else:
            print(f"OK   {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
