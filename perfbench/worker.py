"""The measured process of one benchmark run.

Started fresh by run.py for every run, so its peak resident memory is the
memory of one run of the workload.  It warms the interpreter with one
untimed pipeline run on the shipped fixture, then runs closed-loop reps
(one client, the next rep starts when the previous one has finished)
until the time budget would be exceeded, always at least one.  Each rep:

1. paper-fetch workload only: empties the indicator cache and fetches the
   six indicators from the local stub (``fetch_s``);
2. runs ``run_pipeline(config, write=True)`` (``pipeline_s``);
3. checks the written artifacts against the stored reference; a rep that
   fails the check is a failed operation and contributes no timing.

With --trace 1 the first part of the budget runs untraced reps and the
rest runs reps with the tracer installed; the per-layer metrics come from
the traced reps and the difference of the two pipeline medians is the
tracing overhead.  The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time

import check
import panels
import stub
from spans import Tracer

_clock = time.perf_counter
UNTRACED_SHARE = 0.4  # of a traced run's budget spent on untraced reps


def _unitroot_cells(out_dir: str) -> tuple:
    """(cells, error cells) of the battery table the run wrote."""
    path = os.path.join(out_dir, "unitroot.json")
    if not os.path.exists(path):
        return 0, 0
    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)["values"]
    cells = [cell for tests in values.values() for orders in tests.values()
             for cell in orders.values()]
    return len(cells), sum("error" in cell for cell in cells)


def install_tracer(tracer) -> list:
    """Wrap the package's public functions where their callers look them up.

    Returns the names that could not be wrapped because the attribute is
    missing in the package under test.
    """
    from panelmetrics import _dfconstants, fmols, gmm, unitroot
    from panelmetrics.report import pipeline

    def csv_bytes(args, kwargs, result):
        return {"data.csv_bytes": os.path.getsize(args[0])}

    def diff_rows(args, kwargs, result):
        return {"gmm.rows": result.n_obs}

    def instrument_columns(args, kwargs, result):
        return {
            "gmm.instrument_columns": result.n_instruments,
            "gmm.dropped_columns": len(result.dropped_columns),
        }

    def rendered_bytes(args, kwargs, result):
        return {"render.bytes": len(result.encode("utf-8"))}

    targets = [
        (pipeline, "read_panel_csv", "data.read_panel_csv", "span", csv_bytes),
        (pipeline, "regression_sample", "data.regression_sample", "span", None),
        (gmm, "regression_sample", "data.regression_sample", "span", None),
        (fmols, "regression_sample", "data.regression_sample", "span", None),
        (unitroot, "contiguous_run", "data.contiguous_run", "hot", None),
        (pipeline, "fetch_indicators", "fetch.fetch_indicators", "span", None),
        (pipeline, "run_battery", "unitroot.run_battery", "span", None),
        (unitroot, "fisher_adf", "unitroot.fisher_adf", "span", None),
        (unitroot, "fisher_pp", "unitroot.fisher_pp", "span", None),
        (unitroot, "ips_test", "unitroot.ips_test", "span", None),
        (unitroot, "llc_test", "unitroot.llc_test", "span", None),
        (unitroot, "adf_test", "unitroot.adf_test", "count", None),
        (unitroot, "pp_test", "unitroot.pp_test", "count", None),
        (_dfconstants, "mackinnon_p", "unitroot.mackinnon_p", "hot", None),
        (pipeline, "differenced_sample", "gmm.differenced_sample", "span", diff_rows),
        (pipeline, "build_instruments", "gmm.build_instruments", "span", instrument_columns),
        (pipeline, "gmm_estimate", "gmm.gmm_estimate", "span", None),
        (pipeline, "fmols_panel", "fmols.fmols_panel", "span", None),
        (fmols, "long_run_covariances", "fmols.long_run_covariances", "hot", None),
        (pipeline, "fixed_effects", "effects.fixed_effects", "span", None),
        (pipeline, "random_effects", "effects.random_effects", "span", None),
        (pipeline, "hausman", "effects.hausman", "span", None),
        (pipeline, "describe_table", "descriptives.describe_table", "span", None),
        (pipeline, "correlation_matrix", "descriptives.correlation_matrix", "span", None),
        (pipeline, "render_table", "render.render_table", "span", rendered_bytes),
    ]
    targets += [
        (pipeline, attr, "render.build_tables", "span", None)
        for attr in sorted(vars(pipeline))
        if attr.startswith("build_") and attr.endswith("_table")
    ]
    return [
        f"{module.__name__}.{attr}"
        for module, attr, name, kind, hook in targets
        if not tracer.install(module, attr, name, kind=kind, on_result=hook)
    ]


class Run:
    """State shared by the reps of one run."""

    def __init__(self, args):
        from panelmetrics.report.config import load_config

        self.args = args
        self.workload = panels.WORKLOADS[args.workload]
        self.out_dir = os.path.join(args.work, "out")
        self.cache_dir = os.path.join(args.work, "cache")
        with open(args.reference, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.stub = None
        self.descriptors = ()
        if self.workload.fetch:
            records = stub.records_from_wide_csv(panels.shipped_fixture_csv(args.root))
            self.stub = stub.IndicatorStub(records, panels.PROVIDER, panels.PER_PAGE)
        urls = {"base_url": self.stub.base_url} if self.stub else {}
        doc = panels.config_document(
            self.workload, args.data, self.out_dir, cache_dir=self.cache_dir, **urls
        )
        config_path = os.path.join(args.work, "run.yaml")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # JSON is YAML
        self.config = load_config(config_path)
        if self.workload.fetch:
            from panelmetrics.report.fetch import FetchDescriptor

            self.descriptors = [
                FetchDescriptor(provider=panels.PROVIDER, code=v.source, years=self.config.data.years)
                for v in self.config.variables
            ]

    def warm_up(self):
        """One untimed file-based run of the paper analysis on the shipped fixture."""
        from panelmetrics.report.config import validate_config
        from panelmetrics.report.pipeline import run_pipeline

        doc = panels.config_document(
            dataclasses.replace(panels.WORKLOADS["paper-fetch-74x9"], fetch=False),
            panels.shipped_fixture_csv(self.args.root),
            os.path.join(self.args.work, "warm-up"),
        )
        run_pipeline(validate_config(doc), write=True)

    def rep(self, tracer=None) -> dict:
        from panelmetrics.report import fetch, pipeline

        call = tracer.call if tracer else (lambda name, fn, *a, **k: fn(*a, **k))
        out = {"attempted": 1, "failed": 0}
        if self.workload.fetch:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            before = self.stub.counters()
            t0 = _clock()
            outcomes = call(
                "fetch.fetch_indicators",
                fetch.fetch_indicators,
                self.descriptors,
                self.stub.base_url,
                self.cache_dir,
            )
            out["fetch_s"] = _clock() - t0
            after = self.stub.counters()
            out["fetch"] = {
                "requests": after[0] - before[0],
                "pages": after[1] - before[1],
                "bytes": after[2] - before[2],
                "rows": sum(o.rows for o in outcomes),
            }
            out["attempted"] += len(outcomes)
            out["failed"] += sum(not o.ok for o in outcomes)

        shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = _clock()
        try:
            bundle = call(
                "report.pipeline.run_pipeline", pipeline.run_pipeline, self.config, write=True
            )
        except Exception as exc:  # noqa: BLE001 - a raising pipeline is a failed rep
            out.update(pipeline_s=None, timings={}, cells=0, error_cells=0,
                       check=f"run_pipeline raised {type(exc).__name__}: {exc}")
            out["failed"] += 1
            return out
        out["pipeline_s"] = _clock() - t0

        with open(os.path.join(self.out_dir, "timings.json"), encoding="utf-8") as fh:
            out["timings"] = json.load(fh)
        cells, error_cells = _unitroot_cells(self.out_dir)
        stages = bundle.manifest["stages"]
        out["attempted"] += len(stages) + cells
        out["failed"] += len(bundle.errors)
        out["cells"], out["error_cells"] = cells, error_cells
        reason = check.compare(self.reference, self.out_dir, bundle.errors)
        out["check"] = reason
        if reason is not None:
            out["failed"] += 1
        return out

    def loop(self, budget: float, tracer=None) -> list:
        reps, durations = [], []
        start = _clock()
        while True:
            if tracer is not None:
                tracer.rep = len(reps)
            t0 = _clock()
            reps.append(self.rep(tracer))
            durations.append(_clock() - t0)
            if _clock() - start + statistics.median(durations) > budget:
                return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--data", default=None)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))

    run = Run(args)
    result = {}
    with contextlib.ExitStack() as stack:
        if run.stub:
            stack.enter_context(run.stub)
        run.warm_up()
        if not args.trace:
            result["reps"] = run.loop(args.seconds)
        else:
            result["untraced"] = run.loop(args.seconds * UNTRACED_SHARE)
            tracer = Tracer()
            result["missing_wrappers"] = install_tracer(tracer)
            try:
                result["reps"] = run.loop(args.seconds * (1 - UNTRACED_SHARE), tracer)
            finally:
                tracer.uninstall()
            result["layers"] = [tracer.totals(i) for i in range(len(result["reps"]))]
            result["counts"] = [dict(tracer.counts[i]) for i in range(len(result["reps"]))]
            result["wrapper_cost_s"] = tracer.wrapper_cost(len(result["reps"]))
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump(tracer.dump(), fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
