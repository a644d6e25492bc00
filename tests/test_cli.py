"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import hashlib
import http.server
import json
import os
import pkgutil
import subprocess
import sys
import threading
from urllib.parse import parse_qs, urlparse

import numpy as np
import pytest
import yaml

import panelmetrics
from panelmetrics.data import read_panel_csv
from panelmetrics.report import fetch, pipeline
from panelmetrics.report.cli import main
from panelmetrics.report.config import load_config, validate_config
from panelmetrics.report.fetch import FetchDescriptor

SRC = os.path.dirname(os.path.dirname(os.path.abspath(panelmetrics.__file__)))
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
MODULES = sorted(m.name for m in pkgutil.walk_packages(panelmetrics.__path__, "panelmetrics."))


def write_panel(path, n=40, width=9):
    rng = np.random.default_rng(6021)
    x1 = np.cumsum(0.1 * rng.standard_normal((n, width)), axis=1) + 5.0
    x2 = np.cumsum(0.1 * rng.standard_normal((n, width)), axis=1) + 3.0
    c = 0.2 * rng.standard_normal(n)
    y = np.empty((n, width))
    y[:, 0] = 2.0 + c
    for t in range(1, width):
        y[:, t] = c + 0.5 * y[:, t - 1] + 0.05 * x1[:, t - 1] + 0.01 * rng.standard_normal(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity", "year", "y", "x1", "x2"])
        for i in range(n):
            for j in range(width):
                writer.writerow(
                    [f"E{i:02d}", 2013 + j]
                    + [repr(float(v[i, j])) for v in (y, x1, x2)]
                )


def file_doc(**overrides):
    doc = {
        "config_version": 1,
        "seed": 99,
        "data": {"source": "file", "path": "panel.csv", "schema": "wide"},
        "variables": [{"name": "y"}, {"name": "x1"}, {"name": "x2"}],
        "models": [
            {
                "label": "1",
                "dependent": "y",
                "regressors": [{"var": "x1", "lag": 1}],
                "lagged_dependent": True,
            },
            {
                "label": "2",
                "dependent": "y",
                "regressors": [{"var": "x2", "lag": 1}],
                "lagged_dependent": True,
            },
        ],
        "output": {"directory": "out", "formats": ["json"]},
    }
    doc.update(overrides)
    return doc


@pytest.fixture()
def workspace(tmp_path):
    """Config directory with the test panel and a ready config file."""

    def prepare(doc=None):
        write_panel(tmp_path / "panel.csv")
        with open(tmp_path / "cfg.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc or file_doc(), fh)
        return str(tmp_path / "cfg.yaml")

    prepare.dir = tmp_path
    return prepare


def artifacts_in(out_dir):
    return sorted(p.name for p in out_dir.iterdir())


class TestAnalysisCommands:
    def test_run_emits_all_tables(self, workspace, capsys):
        assert main(["run", "--config", workspace()]) == 0
        names = artifacts_in(workspace.dir / "out")
        assert names == [
            "comparison.json", "correlation.json", "describe.json", "fmols.json",
            "gmm.json", "hausman.json", "manifest.json", "timings.json",
            "unitroot.json",
        ]
        assert "wrote" in capsys.readouterr().out

    def test_describe_writes_its_tables_only(self, workspace, capsys):
        assert main(["describe", "--config", workspace()]) == 0
        assert artifacts_in(workspace.dir / "out") == [
            "correlation.json", "describe.json", "manifest.json", "timings.json",
        ]

    def test_unitroot_and_hausman_single_stage(self, workspace, capsys):
        config = workspace()
        assert main(["unitroot", "--config", config, "--out", "ur"]) == 0
        assert artifacts_in(workspace.dir / "ur") == [
            "manifest.json", "timings.json", "unitroot.json",
        ]
        assert main(["hausman", "--config", config, "--out", "hz"]) == 0
        assert artifacts_in(workspace.dir / "hz") == [
            "hausman.json", "manifest.json", "timings.json",
        ]

    @pytest.mark.parametrize("method", ["fmols", "gmm"])
    def test_estimate_writes_one_method(self, workspace, capsys, method):
        assert main(
            ["estimate", "--config", workspace(), "--method", method]
        ) == 0
        assert artifacts_in(workspace.dir / "out") == [
            f"{method}.json", "manifest.json", "timings.json",
        ]

    def test_seed_and_format_overrides(self, workspace, capsys):
        config = workspace()
        # the seed comes from the config alone: --seed is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", config, "--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert main(["run", "--config", config, "--format", "md"]) == 0
        out = workspace.dir / "out"
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 99
        assert not [n for n in artifacts_in(out) if n.endswith(".csv")]
        assert "describe.md" in artifacts_in(out)


class TestExitCodes:
    def test_config_error_is_1(self, workspace, capsys):
        config = workspace(file_doc(config_version=99))
        assert main(["run", "--config", config]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_data_file_is_3(self, workspace, capsys):
        config = workspace(
            file_doc(data={"source": "file", "path": "absent.csv"})
        )
        assert main(["run", "--config", config]) == 3
        assert "I/O error" in capsys.readouterr().err

    def test_malformed_data_file_is_2(self, workspace, capsys):
        config = workspace()
        (workspace.dir / "panel.csv").write_text("\x00garbage")
        assert main(["run", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "ingest error" in err
        assert str(workspace.dir / "panel.csv") in err

    def test_stage_failure_is_2(self, workspace, capsys):
        doc = file_doc()
        for model in doc["models"]:
            model["lagged_dependent"] = False
        assert main(["run", "--config", workspace(doc)]) == 2
        err = capsys.readouterr().err
        assert "stage gmm failed" in err
        # independent stages still produced their artifacts
        assert "fmols.json" in artifacts_in(workspace.dir / "out")


FETCH_ENTITIES = {"VARY": ("AAA", "BBB", "CCC"), "VARX": ("AAA", "BBB"), "VARW": ("AAA", "CCC")}
# codes served one year beyond each end of the requested range
WIDER_YEARS = ("VARW",)


class _IndicatorHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        url = urlparse(self.path)
        code = url.path.rsplit("/", 1)[-1]
        if code == "DOWN":
            body = b"backend down"
            self.send_response(500)
        else:
            first, last = (int(y) for y in parse_qs(url.query)["date"][0].split(":"))
            pad = 1 if code in WIDER_YEARS else 0
            records = [
                {"entity": e, "date": str(year), "value": float(len(e) + year % 7 + i)}
                for i, e in enumerate(FETCH_ENTITIES[code])
                for year in range(first - pad, last + 1 + pad)
            ]
            body = json.dumps([{"page": 1, "pages": 1}, records]).encode()
            self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def indicator_server():
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _IndicatorHandler)
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}"
    finally:
        srv.shutdown()
        thread.join()


def fetch_doc(base_url, codes=("VARY", "VARX")):
    return {
        "config_version": 1,
        "seed": 5,
        "data": {
            "source": "fetch",
            "base_url": base_url,
            "provider": "prov",
            "years": "2013:2016",
            "cache_dir": "cache",
        },
        "variables": [
            {"name": name.lower(), "source": name} for name in codes
        ],
        "models": [
            {
                "label": "1",
                "dependent": codes[0].lower(),
                "regressors": [{"var": codes[-1].lower(), "lag": 1}],
                "lagged_dependent": True,
            }
        ],
        "output": {"directory": "out", "formats": ["json"]},
    }


class TestFetchCommands:
    def write_config(self, tmp_path, doc):
        with open(tmp_path / "cfg.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        return str(tmp_path / "cfg.yaml")

    def test_fetch_then_cache(self, indicator_server, tmp_path, capsys):
        config = self.write_config(tmp_path, fetch_doc(indicator_server))
        assert main(["fetch", "--config", config]) == 0
        first = capsys.readouterr().out
        assert "1 page(s)" in first
        assert len(list((tmp_path / "cache").iterdir())) == 2
        assert main(["fetch", "--config", config]) == 0
        assert "(cache)" in capsys.readouterr().out

    def test_fetch_on_file_source_is_config_error(self, workspace, capsys):
        assert main(["fetch", "--config", workspace()]) == 1
        assert "nothing to fetch" in capsys.readouterr().err

    def test_fetch_failure_is_3(self, indicator_server, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fetch, "BACKOFF_S", 0.01)  # the 5xx retries wait 10 ms, not 0.5 s
        doc = fetch_doc(indicator_server, codes=("VARY", "DOWN"))
        config = self.write_config(tmp_path, doc)
        assert main(["fetch", "--config", config]) == 3
        assert "FAILED" in capsys.readouterr().err

    def test_run_with_a_failing_indicator_is_3(self, indicator_server, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(fetch, "BACKOFF_S", 0.01)
        config = self.write_config(tmp_path, fetch_doc(indicator_server, codes=("VARY", "DOWN")))
        assert main(["run", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error: indicator download failed: DOWN: ")
        assert "VARY" not in err
        assert not (tmp_path / "out").exists()

    def test_corrupt_cache_file_is_fetched_again(self, indicator_server, tmp_path, capsys):
        config = self.write_config(tmp_path, fetch_doc(indicator_server))
        assert main(["fetch", "--config", config]) == 0
        key = FetchDescriptor("prov", "VARY", "2013:2016").cache_key(indicator_server)
        cached = tmp_path / "cache" / f"{key}.csv"
        cached.write_text("\x00garbage")
        capsys.readouterr()
        assert main(["fetch", "--config", config]) == 0
        vary, varx = capsys.readouterr().out.splitlines()
        assert vary.endswith("(1 page(s))") and varx.endswith("(cache)")
        assert list(read_panel_csv(cached, schema="long").variables) == ["VARY"]

    def test_warm_cache_run_parses_each_indicator_once(self, indicator_server, tmp_path,
                                                       monkeypatch):
        config = self.write_config(tmp_path, fetch_doc(indicator_server))
        assert main(["fetch", "--config", config]) == 0
        parsed = []

        def counting(path, schema="wide"):
            parsed.append(os.path.basename(path))
            return read_panel_csv(path, schema)

        monkeypatch.setattr(fetch, "read_panel_csv", counting)
        monkeypatch.setattr(pipeline, "read_panel_csv", counting)
        cfg = load_config(config).with_overrides(stages=["describe"])
        bundle = pipeline.run_pipeline(cfg, base_dir=str(tmp_path))
        assert "describe" in bundle.tables
        assert bundle.out_dir == str(tmp_path / "out")
        assert sorted(parsed) == sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert len(parsed) == 2

    def test_ingest_merges_indicators(self, indicator_server, tmp_path, capsys):
        config = self.write_config(tmp_path, fetch_doc(indicator_server))
        with pytest.warns(UserWarning, match="no rows for entities"):
            assert main(["ingest", "--config", config]) == 0
        out = capsys.readouterr().out
        assert out.startswith("wrote")
        dataset = read_panel_csv(tmp_path / "out" / "panel.csv", schema="long")
        assert dataset.entities == ("AAA", "BBB", "CCC")
        assert dataset.periods == (2013, 2014, 2015, 2016)
        assert {"vary", "varx"} <= set(dataset.variables)
        # VARX has no CCC rows; the merged grid leaves them missing
        assert np.isnan(dataset["varx"].values[2]).all()
        assert np.isfinite(dataset["vary"].values).all()

    def test_ingest_skips_years_outside_the_range(self, indicator_server, tmp_path):
        # VARW is served for 2012-2017 against the configured 2013:2016
        config = self.write_config(tmp_path, fetch_doc(indicator_server, ("VARY", "VARW")))
        with pytest.warns(UserWarning, match=r"'VARW': no rows for entities \['BBB'\]"):
            assert main(["ingest", "--config", config]) == 0
        dataset = read_panel_csv(tmp_path / "out" / "panel.csv", schema="long")
        assert dataset.periods == (2013, 2014, 2015, 2016)
        years = np.arange(2013, 2017)
        expected = [3 + years % 7, np.full(4, np.nan), 4 + years % 7]
        np.testing.assert_array_equal(dataset["varw"].values, expected)


class TestIngestFileSource:
    def test_ingest_writes_long_panel(self, workspace, capsys):
        assert main(["ingest", "--config", workspace()]) == 0
        dataset = read_panel_csv(workspace.dir / "out" / "panel.csv", schema="long")
        assert len(dataset.entities) == 40
        assert set(dataset.variables) == {"y", "x1", "x2"}


def test_cli_import_and_run_load_no_scipy(workspace):
    # tail probabilities come from panelmetrics._special, so neither the import nor a run of all
    # seven stages may load any scipy module, lazily or not; requests loads on the fetch path only
    loaded = "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'requests')))"
    run = f"assert main(['run', '--config', {workspace()!r}]) == 0"
    for code in (f"import sys, panelmetrics.report.cli; {loaded}",
                 f"import sys; from panelmetrics.report.cli import main; {run}; {loaded}"):
        out = subprocess.run([sys.executable, "-W", "ignore", "-c", code], env=SRC_ENV,
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip().splitlines()[-1] == "[]"
    assert artifacts_in(workspace.dir / "out") == [
        "comparison.json", "correlation.json", "describe.json", "fmols.json",
        "gmm.json", "hausman.json", "manifest.json", "timings.json", "unitroot.json",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    # the package re-exports nothing, so no import of it loads the others first
    subprocess.run([sys.executable, "-c", f"import {module}"], env=SRC_ENV, check=True, timeout=60)


def test_benchmark_tracer_finds_every_name(monkeypatch):
    # a traced benchmark run reports correct: false when a wrapped name is gone
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import spans
    import worker

    tracer = spans.Tracer()
    try:
        assert worker.install_tracer(tracer) == []
    finally:
        tracer.uninstall()


def test_benchmark_tracer_sees_a_call_of_every_layer(monkeypatch, tmp_path):
    # a wrapped name the pipeline does not call through reads 0.0 s in every traced run;
    # the fixture's file run, written out, reaches every layer but the fetch
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import panels
    import spans
    import worker

    workload = dataclasses.replace(panels.WORKLOADS["paper-fetch-74x9"], fetch=False)
    doc = panels.config_document(workload, panels.shipped_fixture_csv(root), str(tmp_path / "out"))
    tracer = spans.Tracer()
    try:
        assert worker.install_tracer(tracer) == []
        bundle = pipeline.run_pipeline(validate_config(doc))
    finally:
        tracer.uninstall()
    assert bundle.errors == {}
    layers = sorted(name for name, kind in tracer.kinds.items() if kind in ("span", "hot"))
    assert len(layers) > 20
    assert [name for name in layers if not tracer.calls[0][name]] == ["fetch.fetch_indicators"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 cores for BLAS to run 2 threads")
def test_run_writes_the_same_bytes_at_any_blas_thread_count(monkeypatch, tmp_path):
    # the CLI pins BLAS to one thread before numpy loads, so a caller's thread setting
    # cannot reorder GMM's sums: at 2 threads the balanced 500x20 panel's gmm and
    # comparison tables came out in other bytes before that pin
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import panels
    workload = panels.WORKLOADS["balanced-500x20"]
    data = panels.prepare_inputs(workload, 1, str(tmp_path))
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(panels.config_document(workload, data, "out")))
    digests = []
    for threads in ("2", "1"):
        env = dict(SRC_ENV, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = tmp_path / f"out-{threads}"
        subprocess.run([sys.executable, "-W", "ignore", "-m", "panelmetrics.report.cli", "run",
                        "--config", str(config), "--out", str(out)],
                       env=env, capture_output=True, check=True, timeout=300)
        # timings.json is the run-variant sidecar; every artifact and the manifest must match
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in artifacts_in(out) if name != "timings.json"})
    assert len(digests[0]) == 22
    assert digests[0] == digests[1]
