"""Write references/<workload>.json: what every benchmark panel must produce.

    python3 perfbench/make_references.py [workload ...]

For each workload and each panel of its pool, runs the pipeline once from
a CSV file and stores the artifact digests, stage errors and JSON table
values (check.snapshot).  The fetch workload's reference is the run on the
shipped fixture CSV, so every benchmark rep also confirms that the fetched
indicators reproduce the file-based tables.  Rerun only when the panels
or the analysis config change, never to absorb a change in the package's
output.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import panels  # noqa: E402
from panelmetrics.report.config import validate_config  # noqa: E402
from panelmetrics.report.pipeline import run_pipeline  # noqa: E402


def reference_for(workload, index: int, work: str) -> dict:
    if workload.fetch:
        data = panels.shipped_fixture_csv(ROOT)
    else:
        data = panels.prepare_inputs(workload, index, work)
    out_dir = os.path.join(work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    doc = panels.config_document(dataclasses.replace(workload, fetch=False), data, out_dir)
    bundle = run_pipeline(validate_config(doc))
    return check.snapshot(out_dir, bundle.errors)


def main(names) -> int:
    for name in names or panels.WORKLOADS:
        workload = panels.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as work:
            refs = {}
            for index in range(workload.panel_pool):
                refs[str(index)] = reference_for(workload, index, work)
                print(f"{name} panel {index}: {len(refs[str(index)]['artifacts'])} artifacts, "
                      f"errors {refs[str(index)]['errors']}", flush=True)
        path = os.path.join(HERE, "references", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "panels": refs}, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
