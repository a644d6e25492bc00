"""Set-up as a user pays it: import the CLI, then load and validate a config.

Run in a fresh interpreter as ``python3 setup_probe.py <src dir> <config>``.
Prints one JSON object: the CLOCK_MONOTONIC reading when the config is
validated (``ready``), which the parent subtracts from its own reading
before it started this process, and the import and config times.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import panelmetrics.report.cli  # noqa: E402,F401

t1 = time.perf_counter()
from panelmetrics.report.config import load_config  # noqa: E402

load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"ready": time.monotonic(), "import_s": t1 - t0, "config_s": t2 - t1}))
