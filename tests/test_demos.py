"""Smoke test: every demo script, and the README's library tour, runs to
completion against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert DEMOS


def readme_tour() -> str:
    """The Python block under the README's "Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library tour\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)


@pytest.mark.parametrize("demo", DEMOS + [README], ids=[d.name for d in DEMOS + [README]])
def test_demo_runs(demo, tmp_path):
    if demo == README:
        demo = tmp_path / "readme_tour.py"
        demo.write_text(readme_tour(), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
