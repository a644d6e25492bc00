"""The benchmark's output check and its selfcheck, run in tier-1.

Each perfbench workload's seed-1 panel (panels.py) goes through run_pipeline
in a fresh interpreter with BLAS pinned to one thread, as the benchmark runs
it, and must pass check.compare against perfbench/references/.  A change that
reorders float sums past the check's tolerance then fails here, not only in
the benchmark.  perfbench/selfcheck.py runs here too, so the paper analysis
also goes through the fetch client, not only in a benchmark rep.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

SCRIPT = """
import dataclasses, json, os, sys
root, work = sys.argv[1:]
sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "src")]
import check, panels
from panelmetrics.report.config import validate_config
from panelmetrics.report.pipeline import run_pipeline

outcome = {}
for name, workload in panels.WORKLOADS.items():
    os.makedirs(os.path.join(work, name))
    if workload.fetch:  # its reference is the file-based run on the shipped fixture
        data = panels.shipped_fixture_csv(root)
    else:
        data = panels.prepare_inputs(workload, 1, os.path.join(work, name))
    out_dir = os.path.join(work, name, "out")
    doc = panels.config_document(dataclasses.replace(workload, fetch=False), data, out_dir)
    bundle = run_pipeline(validate_config(doc))
    with open(os.path.join(root, "perfbench", "references", name + ".json")) as fh:
        reference = json.load(fh)["panels"][str(panels.panel_index(workload, 1))]
    outcome[name] = check.compare(reference, out_dir, bundle.errors)
print(json.dumps(outcome))
"""


def test_seed_one_panels_pass_the_benchmark_check(tmp_path):
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", SCRIPT, ROOT, str(tmp_path)],
                         env=ENV, capture_output=True, text=True, check=True, timeout=300)
    outcome = json.loads(out.stdout.strip().splitlines()[-1])
    assert outcome == {"paper-fetch-74x9": None, "balanced-500x20": None, "gappy-600x30": None}


def test_fetched_fixture_writes_the_shipped_csv_runs_bytes():
    # perfbench's selfcheck: the stub serves the fixture in 84 pages and 84 requests, the
    # run on the fetched indicators records no stage error, and its 21 artifacts' sha256s
    # equal those of the run on the shipped CSV; the fetch client's end-to-end guard
    out = subprocess.run([sys.executable, "-W", "ignore", os.path.join(ROOT, "perfbench", "selfcheck.py")],
                         env=ENV, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "selfcheck passed"
