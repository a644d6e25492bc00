"""The same artifacts from rewritten input files.

The paper analysis runs on the shipped fixture and on a small gappy panel,
each also rewritten with its rows shuffled, its value columns in reverse
order, and one extra column no variable reads.  Every artifact must keep its
bytes; the manifest may differ only in the config digest, which covers the
data file's path.  These rewrites change which runs of the unit-root battery
meet in one kernel call, so they guard its chunking too.  Renamed entities
are not covered: the bytes still depend on the labels' sort order.

A regressor's units do not change the tables either: with raw oda_per_capita
times 1000, every estimate and test moves by rounding only, and describe
moves ln_oda_per_capita's location rows by ln 1000.  The dependent is left
out: GMM's level instruments carry its shift, which no constant absorbs.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from panelmetrics.fixture import fixture_path
from panelmetrics.report.config import validate_config
from panelmetrics.report.pipeline import MANIFEST_NAME, run_pipeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import panels  # noqa: E402

GAPPY = dataclasses.replace(panels.WORKLOADS["gappy-600x30"], n_entities=40)


def shuffled_rows(header, rows):
    order = np.random.default_rng(52).permutation(len(rows))
    return header, [rows[i] for i in order]


def reversed_columns(header, rows):
    return header[:2] + header[:1:-1], [row[:2] + row[:1:-1] for row in rows]


def unused_column(header, rows):
    return header + ["unused"], [row + [f"{i % 7}.5"] for i, row in enumerate(rows)]


REWRITES = {"shuffled-rows": shuffled_rows, "reversed-columns": reversed_columns, "unused-column": unused_column}
UNITS = 1e-6  # a value's move under a change of units, scaled as perfbench/check.py scales
ESTIMATES = ("unitroot", "hausman", "gmm", "fmols", "comparison", "correlation")


def thousandfold_oda(header, rows):
    col = header.index("oda_per_capita")
    return header, [row[:col] + [row[col] and repr(1000 * float(row[col]))] + row[col + 1:] for row in rows]


def write_rewritten(path, rewrite, out):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    header, rows = rewrite(header, rows)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return out


def close(got, want):
    """Whether got equals want but for floats within UNITS, times |want| above 1."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(close, got, want))
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= UNITS * max(1.0, abs(want))
    return got == want


@pytest.fixture(scope="module", params=["fixture", "gappy-40x30"])
def source(request, tmp_path_factory):
    """The panel's CSV path and the paper analysis' workload for it."""
    work = tmp_path_factory.mktemp(request.param)
    if request.param == "fixture":
        return fixture_path(), panels.WORKLOADS["paper-fetch-74x9"]
    return panels.prepare_inputs(GAPPY, 1, str(work)), GAPPY


def run(workload, data, out_dir):
    """Each artifact's sha256, the manifest, and the stage errors of one paper-analysis run."""
    doc = panels.config_document(dataclasses.replace(workload, fetch=False), str(data), str(out_dir))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bundle = run_pipeline(validate_config(doc))
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in os.listdir(out_dir) if name not in (MANIFEST_NAME, "timings.json")}
    return digests, json.loads((out_dir / MANIFEST_NAME).read_text(encoding="utf-8")), bundle.errors


@pytest.mark.parametrize("rewrite", REWRITES)
def test_rewritten_file_gives_the_same_bytes(source, rewrite, tmp_path):
    path, workload = source
    rewritten = write_rewritten(path, REWRITES[rewrite], tmp_path / "rewritten.csv")
    digests, manifest, errors = run(workload, path, tmp_path / "original")
    got_digests, got_manifest, got_errors = run(workload, rewritten, tmp_path / "rewritten")
    assert len(digests) == 21 and errors == {}
    assert (got_digests, got_errors) == (digests, errors)
    assert got_manifest["config_digest"] != manifest["config_digest"]
    del got_manifest["config_digest"], manifest["config_digest"]
    assert got_manifest == manifest


def test_regressor_units_do_not_change_the_tables(source, tmp_path):
    path, workload = source
    scaled = write_rewritten(path, thousandfold_oda, tmp_path / "scaled.csv")
    tables = {}
    for name, data in (("original", path), ("scaled", scaled)):
        _, _, errors = run(workload, data, tmp_path / name)
        assert errors == {}
        tables[name] = {stage: json.loads((tmp_path / name / f"{stage}.json").read_text(encoding="utf-8"))["values"]
                        for stage in ESTIMATES + ("describe",)}
    want, got = tables["original"], tables["scaled"]
    for stage in ESTIMATES:
        assert close(got[stage], want[stage]), stage
    oda, got_oda = want["describe"].pop("ln_oda_per_capita"), got["describe"].pop("ln_oda_per_capita")
    assert got["describe"] == want["describe"]
    shift = math.log(1000)
    moved = {row: oda[row] + shift for row in ("mean", "median", "maximum", "minimum")}
    assert close(got_oda, {**oda, **moved, "total": oda["total"] + oda["n"] * shift})
