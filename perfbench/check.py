"""Output check of one pipeline run against a stored reference.

A run passes when it wrote exactly the reference's artifacts, recorded the
same stage errors, and every artifact's sha256 matches.  When digests
differ the run still passes if, stage by stage, the JSON table's name,
title, columns and notes are equal and every number under "values" moved
by at most TOLERANCE (scaled by the magnitude for values above 1), which
is how a change that only reorders floating-point sums is accepted.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from metrics import STAGES

TOLERANCE = 1e-10
FORMATS = ("md", "csv", "json")


def digests(out_dir: str) -> dict:
    """artifact file name -> sha256 of its bytes, for every file present."""
    out = {}
    for stage in STAGES:
        for fmt in FORMATS:
            name = f"{stage}.{fmt}"
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def table_values(out_dir: str) -> dict:
    out = {}
    for stage in STAGES:
        path = os.path.join(out_dir, f"{stage}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                out[stage] = json.load(fh)
    return out


def snapshot(out_dir: str, errors: dict) -> dict:
    """What a reference stores: digests, stage errors, JSON table values."""
    tables = table_values(out_dir)
    return {
        "errors": dict(sorted(errors.items())),
        "artifacts": digests(out_dir),
        "tables": {
            stage: {k: v for k, v in table.items() if k != "rows"}
            for stage, table in tables.items()
        },
    }


def _close(a, b, path: str):
    """None when a and b agree within tolerance, else the first difference."""
    if isinstance(b, bool) or b is None or isinstance(b, str):
        return None if a == b else f"{path}: {a!r} != {b!r}"
    if isinstance(b, (int, float)):
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            return f"{path}: {a!r} is not a number"
        if math.isfinite(a) and abs(a - b) <= TOLERANCE * max(1.0, abs(b)):
            return None
        return f"{path}: {a!r} differs from {b!r} by more than {TOLERANCE:g}"
    if isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            return f"{path}: list shape differs"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _close(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(b, dict):
        if not isinstance(a, dict) or set(a) != set(b):
            return f"{path}: keys differ"
        for key in b:
            diff = _close(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    return f"{path}: unexpected reference value {b!r}"


def compare(reference: dict, out_dir: str, errors: dict):
    """None when the run in out_dir matches the reference, else the reason."""
    if dict(sorted(errors.items())) != reference["errors"]:
        return f"stage errors {errors} differ from reference {reference['errors']}"
    produced = digests(out_dir)
    if set(produced) != set(reference["artifacts"]):
        return f"artifacts {sorted(produced)} differ from reference"
    if produced == reference["artifacts"]:
        return None
    tables = table_values(out_dir)
    for stage, ref_table in reference["tables"].items():
        table = {k: v for k, v in tables[stage].items() if k != "rows"}
        diff = _close(table, ref_table, stage)
        if diff:
            return diff
    return None
