"""Checks that the benchmark's inputs are what it claims they are.

    python3 perfbench/selfcheck.py

1. The panel generator at 74 entities x 2013-2021 and the fixture seed
   reproduces ``panelmetrics.fixture.synthetic_panel()`` bit for bit on
   every cell the fixture does not blank or zero.
2. The stub serves the shipped fixture in 84 pages (6 indicators x 14),
   and the pipeline run on the fetched indicators writes the same 21
   artifacts, byte for byte, as the run on the shipped CSV.

Exits 1 on the first failed check.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import dataclasses  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import check  # noqa: E402
import panels  # noqa: E402
import stub  # noqa: E402
from panelmetrics.fixture import synthetic_panel  # noqa: E402
from panelmetrics.report.config import validate_config  # noqa: E402
from panelmetrics.report.pipeline import run_pipeline  # noqa: E402


def check_generator():
    fixture = synthetic_panel()
    grids = panels.generate_panel(74, tuple(range(2013, 2022)), panels.FIXTURE_SEED)
    for name in panels.RAW_VARIABLES:
        want = fixture[name].values
        kept = np.isfinite(want) & (want != 0)
        if not np.array_equal(grids[name][kept], want[kept]):
            return f"generator differs from the fixture on {name}"
        print(f"generator: {name} equal on {int(kept.sum())} of {want.size} cells")
    return None


def check_fetch(work):
    workload = panels.WORKLOADS["paper-fetch-74x9"]
    file_workload = dataclasses.replace(workload, fetch=False)
    file_out = os.path.join(work, "file")
    run_pipeline(validate_config(
        panels.config_document(file_workload, panels.shipped_fixture_csv(ROOT), file_out)))

    records = stub.records_from_wide_csv(panels.shipped_fixture_csv(ROOT))
    fetch_out = os.path.join(work, "fetch")
    with stub.IndicatorStub(records, panels.PROVIDER, panels.PER_PAGE) as server:
        doc = panels.config_document(workload, None, fetch_out, base_url=server.base_url,
                                     cache_dir=os.path.join(work, "cache"))
        bundle = run_pipeline(validate_config(doc))
        requests, pages, _ = server.counters()
    if bundle.errors:
        return f"fetched run recorded stage errors {bundle.errors}"
    if (requests, pages) != (84, 84):
        return f"stub served {pages} pages in {requests} requests, expected 84 and 84"
    want, got = check.digests(file_out), check.digests(fetch_out)
    if len(want) != 21 or got != want:
        return "fetched run's artifacts differ from the shipped-CSV run's"
    print(f"fetch: {pages} pages; all {len(got)} artifact sha256s equal the shipped-CSV run's")
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for step in (check_generator, lambda: check_fetch(work)):
            failure = step()
            if failure:
                print(f"FAIL: {failure}")
                return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
