"""panelmetrics benchmark: the report pipeline end to end, and per layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``.  Each run:

1. writes the workload's input panel (generated from --seed, see
   panels.py) and config under ``.perfbench-work/``;
2. measures set-up SETUP_PROBES times, each in a fresh interpreter that
   imports the CLI and validates the config (``setup_s``);
3. starts worker.py, a fresh process that runs closed-loop reps for
   --seconds and checks every rep's artifacts against references/;
4. prints a readable summary (median, quartiles and count of every
   timing), then, as the last line, one JSON object with the end-to-end
   metrics (--trace 0, lower quartile of the run's samples) or the
   per-layer metrics (--trace 1, median of the traced reps) as listed in
   BENCHMARK.json.

The summary also gives fetch_s (fetch workload only) and failed_share,
which are end-to-end figures but not bounded metrics (see metrics.py).
Samples, environment and, for traced runs, every span go to
``.perfbench-work/results/``.  Exits 2 when the checkout has no package
to measure.
"""

import os

# BLAS threads are fixed before numpy loads, here and in every child process
# (they inherit the environment): default threading spread 500x20 pipeline
# times over 4.8-8.2 s on a 2-core host, one thread gave 5.9-6.1 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s, builds included

sys.path.insert(0, HERE)
import metrics  # noqa: E402
import panels  # noqa: E402


def summary(values) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) with the sample count."""
    values = [v for v in values if v is not None]
    if not values:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def setup_probe(config_path: str, timeout: float) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, config_path],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["setup_s"] = probe.pop("ready") - start
    return probe


def layer_values(rep: dict, layers: dict, counts: dict, cost_s, untraced_s, traced_s) -> dict:
    """Per-layer metric values of one traced rep."""

    def total(name):
        row = layers.get(name)
        return row["total_s"] if row and row["total_s"] is not None else 0.0

    def self_s(name):
        row = layers.get(name)
        return row["self_s"] if row and row["self_s"] is not None else 0.0

    def calls(name):
        row = layers.get(name)
        return row["calls"] if row else 0

    timings = rep["timings"]
    fetched = rep.get("fetch", {"requests": 0, "pages": 0, "bytes": 0, "rows": 0})
    out = {"pipeline.ingest_s": timings.get("ingest", 0.0)}
    for stage in metrics.STAGES:
        out[f"pipeline.stage.{stage}_s"] = timings.get(stage, 0.0)
    out["pipeline.write_s"] = total("report.pipeline.run_pipeline") - sum(timings.values())
    out["fetch.requests"] = fetched["requests"]
    out["fetch.pages"] = fetched["pages"]
    out["fetch.bytes"] = fetched["bytes"]
    out["fetch.rows"] = fetched["rows"]
    out["fetch.retries"] = fetched["requests"] - fetched["pages"]
    out["unitroot.cells"] = rep["cells"]
    out["unitroot.error_cells"] = rep["error_cells"]
    for name, unit, *_ in metrics.PER_LAYER:
        if name in out or name.startswith(("setup.", "trace.")):
            continue
        if name.endswith(".self_s"):
            out[name] = self_s(name[: -len(".self_s")])
        elif name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
        elif name.endswith("_s"):
            out[name] = total(name[: -len("_s")])
        else:
            out[name] = counts.get(name, 0)
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_share"] = 100.0 * (traced_s - untraced_s) / untraced_s
    out["trace.wrapper_cost_s"] = cost_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(panels.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    began = time.monotonic()

    fixture_csv = panels.shipped_fixture_csv(ROOT)
    if not (os.path.isdir(os.path.join(SRC, "panelmetrics")) and os.path.isfile(fixture_csv)):
        print(f"no panelmetrics package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workload = panels.WORKLOADS[args.workload]
    index = panels.panel_index(workload, args.seed)
    with open(os.path.join(HERE, "references", f"{workload.name}.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["panels"][str(index)]
    base = os.path.join(ROOT, ".perfbench-work")
    work = os.path.join(base, workload.name)
    results_dir = os.path.join(base, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    reference_path = os.path.join(work, "reference.json")
    with open(reference_path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    data_path = panels.prepare_inputs(workload, args.seed, work)
    setup_config = os.path.join(work, "setup.yaml")
    with open(setup_config, "w", encoding="utf-8") as fh:
        json.dump(panels.config_document(workload, data_path, os.path.join(work, "out")), fh)

    remaining = lambda: DEADLINE_S - (time.monotonic() - began)  # noqa: E731
    probes = [setup_probe(setup_config, remaining()) for _ in range(SETUP_PROBES)]

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(results_dir, f"{tag}.spans.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--work", work, "--workload", workload.name,
        "--reference", reference_path, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spans", spans_path,
    ]
    if data_path:
        cmd += ["--data", data_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining())
    except subprocess.TimeoutExpired:
        print("worker did not finish before the deadline", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    reps = result.get("untraced", []) + result["reps"]
    passed = [r for r in reps if r["check"] is None]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    error_cells = sum(r["error_cells"] for r in reps)
    env = environment()
    e2e = {
        "setup_s": summary([p["setup_s"] for p in probes]),
        "pipeline_s": summary([r["pipeline_s"] for r in passed]),
        "fetch_s": summary([r["fetch_s"] for r in passed if "fetch_s" in r]),
        "peak_rss_mb": summary([result["peak_rss_mb"]]),
    }
    missing = result.get("missing_wrappers", [])
    correct = bool(passed) and len(passed) == len(reps) and failed == 0 and not missing

    print(f"panelmetrics benchmark: workload {workload.name}, seed {args.seed} "
          f"(panel {index}), {args.seconds:g} s budget, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, stats in e2e.items():
        if name == "fetch_s" and not workload.fetch:
            continue
        unit = metrics.END_TO_END.get(name) or metrics.SUMMARY_ONLY[name]
        print(f"  {name:<14} median {stats['median']:.4f} {unit}  "
              f"quartiles [{stats['q1']:.4f}, {stats['q3']:.4f}]  n={stats['n']}")
    print(f"  {'failed_share':<14} {(failed + error_cells) / attempted:.5f}  "
          f"= ({failed} failed operations + {error_cells} unit-root error cells) "
          f"/ {attempted} attempted over {len(reps)} reps")
    for r in reps:
        if r["check"] is not None:
            print(f"  output check failed: {r['check']}")

    record = {"workload": workload.name, "seed": args.seed, "panel": index,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "setup_probes": probes, "end_to_end": e2e, "worker": result}
    if args.trace:
        untraced = statistics.median(
            [r["pipeline_s"] for r in result["untraced"] if r["check"] is None] or [math.nan])
        per_rep = [
            layer_values(r, layers, counts, cost, untraced, r["pipeline_s"])
            for r, layers, counts, cost in zip(
                result["reps"], result["layers"], result["counts"], result["wrapper_cost_s"])
            if r["check"] is None
        ]
        values = {name: statistics.median(v[name] for v in per_rep)
                  for name in (per_rep[0] if per_rep else ())}
        values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["setup.config_s"] = statistics.median(p["config_s"] for p in probes)
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        out_metrics = {name: {"value": values.get(name, math.nan), "unit": units[name]}
                       for name in units}
        print(f"tracing overhead: {values.get('trace.overhead_s', math.nan):.4f} s "
              f"({values.get('trace.overhead_share', math.nan):.1f}% of untraced "
              f"pipeline_s {untraced:.4f} s); wrappers' own cost, calls x per-call "
              f"cost on a no-op: {values.get('trace.wrapper_cost_s', math.nan):.4f} s")
        if missing:
            print(f"  could not wrap: {', '.join(missing)}")
        print(f"  {'span':<34} {'calls':>8} {'total s':>10} {'self s':>10}  (traced rep 1)")
        for name, row in sorted(result["layers"][0].items()):
            tot = "" if row["total_s"] is None else f"{row['total_s']:.4f}"
            own = "" if row["self_s"] is None else f"{row['self_s']:.4f}"
            print(f"  {name:<34} {row['calls']:>8} {tot:>10} {own:>10}")
        record["per_layer"] = per_rep
        print(f"spans: {spans_path}")
    else:
        # The bounded value is the lower quartile of the run's samples: on a
        # shared host, neighbours' load only ever slows a rep, and in runs of
        # the same panel it moved the median 20% but the lower quartile half
        # as much.  The summary above still gives median and quartiles.
        out_metrics = {name: {"value": e2e[name]["q1"], "unit": unit}
                       for name, unit in metrics.END_TO_END.items()}
    record["metrics"] = out_metrics
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for entry in out_metrics.values():
        if isinstance(entry["value"], float) and not math.isfinite(entry["value"]):
            entry["value"] = None
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
