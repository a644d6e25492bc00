"""The same artifacts from rewritten input files.

The paper analysis runs on the shipped fixture and on a small gappy panel,
each also rewritten with its rows shuffled, its value columns in reverse
order, and one extra column no variable reads.  Every artifact must keep its
bytes; the manifest may differ only in the config digest, which covers the
data file's path.  These rewrites change which runs of the unit-root battery
meet in one kernel call, so they guard its chunking too.  Renamed entities
are not covered: the bytes still depend on the labels' sort order.
"""

import csv
import dataclasses
import hashlib
import json
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
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    header, rows = REWRITES[rewrite](header, rows)
    rewritten = tmp_path / "rewritten.csv"
    with open(rewritten, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    digests, manifest, errors = run(workload, path, tmp_path / "original")
    got_digests, got_manifest, got_errors = run(workload, rewritten, tmp_path / "rewritten")
    assert len(digests) == 21 and errors == {}
    assert (got_digests, got_errors) == (digests, errors)
    assert got_manifest["config_digest"] != manifest["config_digest"]
    del got_manifest["config_digest"], manifest["config_digest"]
    assert got_manifest == manifest
