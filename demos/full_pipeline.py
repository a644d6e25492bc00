"""
Config-driven pipeline from CSV to rendered report tables
=========================================================

Writes a YAML configuration pointing at the bundled panel CSV, runs the
whole pipeline through the command line entry point, and prints the
manifest summary plus the rendered significance-comparison table.
"""

import json
import tempfile
from pathlib import Path

import yaml

from panelmetrics.fixture import fixture_path
from panelmetrics.report.cli import main

workdir = Path(tempfile.mkdtemp(prefix="panel_report_"))
outdir = workdir / "out"

# 1. the configuration: log-level variables, five dynamic equations, all
#    output formats (the seed is only recorded in the manifest)
doc = {
    "config_version": 1,
    "seed": 20260816,
    "data": {"source": "file", "path": fixture_path(), "schema": "wide"},
    "variables": [
        {"name": name, "log": True}
        for name in (
            "prosperity",
            "oda_per_capita",
            "innovation",
            "rule_of_law",
            "aid_infrastructure",
            "aid_education",
        )
    ],
    "models": [
        {
            "label": str(i + 1),
            "dependent": "ln_prosperity",
            "regressors": [{"var": f"ln_{var}", "lag": 1}],
            "lagged_dependent": True,
        }
        for i, var in enumerate(
            ("oda_per_capita", "innovation", "rule_of_law",
             "aid_infrastructure", "aid_education")
        )
    ],
    "tests": {"det": "c"},
    "output": {"directory": str(outdir), "formats": ["md", "csv", "json"]},
}
config_path = workdir / "report.yaml"
config_path.write_text(yaml.safe_dump(doc, sort_keys=False))

# 2. run the full pipeline exactly as `panelmetrics run` would
code = main(["run", "--config", str(config_path)])
print(f"\nexit code {code}")

# 3. what came out
manifest = json.loads((outdir / "manifest.json").read_text())
print(f"stages: {', '.join(manifest['stages'])}")
print(f"config digest {manifest['config_digest'][:16]}..., seed {manifest['seed']}")
if manifest["warnings"]:
    print("warnings:")
    for w in manifest["warnings"]:
        print(f"  [{w['category']}] {w['message']}")
print()
print((outdir / "comparison.md").read_text())
