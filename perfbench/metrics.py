"""Metric names, units, and which end-to-end metric each layer metric moves.

BENCHMARK.json lists the same names; this module is where each layer
metric's expected effect is written down, before any change is measured.
"""

from __future__ import annotations

PAPER = "paper-fetch-74x9"
BALANCED = "balanced-500x20"
GAPPY = "gappy-600x30"
ALL = (PAPER, BALANCED, GAPPY)

# name -> unit; reported with --trace 0 on every workload and bounded
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
# reported in the summary only: fetch_s exists on the fetch workload alone
# and failed_share is 0 wherever no unit-root cell errors, so neither can
# be a bounded metric of every workload
SUMMARY_ONLY = {"fetch_s": "s", "failed_share": "1"}

STAGES = ("describe", "correlation", "unitroot", "hausman", "gmm", "fmols", "comparison")

# (name, unit, better, end-to-end metric it should move, workloads where it shows most)
PER_LAYER = (
    # report.pipeline
    ("pipeline.ingest_s", "s", "lower", "pipeline_s", (PAPER, BALANCED)),
    *(
        (f"pipeline.stage.{stage}_s", "s", "lower", "pipeline_s", ALL)
        for stage in STAGES
    ),
    ("pipeline.write_s", "s", "lower", "pipeline_s", (PAPER,)),
    # data
    ("data.read_panel_csv_s", "s", "lower", "pipeline_s", (BALANCED, GAPPY)),
    ("data.csv_bytes", "bytes", "lower", "pipeline_s", (BALANCED, GAPPY)),
    ("data.regression_sample.calls", "count", "lower", "pipeline_s", (GAPPY, BALANCED)),
    ("data.regression_sample_s", "s", "lower", "pipeline_s", (GAPPY, BALANCED)),
    ("data.contiguous_run.calls", "count", "lower", "pipeline_s", (GAPPY, BALANCED)),
    ("data.contiguous_run_s", "s", "lower", "pipeline_s", (GAPPY, BALANCED)),
    # report.fetch
    ("fetch.fetch_indicators_s", "s", "lower", "fetch_s", (PAPER,)),
    ("fetch.requests", "count", "lower", "fetch_s", (PAPER,)),
    ("fetch.pages", "count", "lower", "fetch_s", (PAPER,)),
    ("fetch.bytes", "bytes", "lower", "fetch_s", (PAPER,)),
    ("fetch.rows", "count", "higher", "fetch_s", (PAPER,)),
    ("fetch.retries", "count", "lower", "fetch_s", (PAPER,)),
    # unitroot and _dfconstants
    ("unitroot.run_battery_s", "s", "lower", "pipeline_s", (BALANCED, GAPPY)),
    ("unitroot.run_battery.self_s", "s", "lower", "pipeline_s", (BALANCED, GAPPY)),
    *(
        (f"unitroot.{test}{suffix}", "s", "lower", "pipeline_s", (BALANCED, GAPPY))
        for test in ("fisher_adf", "fisher_pp", "ips_test", "llc_test")
        for suffix in ("_s", ".self_s")
    ),
    ("unitroot.adf_test.calls", "count", "lower", "pipeline_s", (BALANCED, GAPPY)),
    ("unitroot.pp_test.calls", "count", "lower", "pipeline_s", (BALANCED, GAPPY)),
    ("unitroot.mackinnon_p.calls", "count", "lower", "pipeline_s", (BALANCED, GAPPY)),
    ("unitroot.mackinnon_p_s", "s", "lower", "pipeline_s", (BALANCED, GAPPY)),
    ("unitroot.cells", "count", "higher", "failed_share", ALL),
    ("unitroot.error_cells", "count", "lower", "failed_share", ALL),
    # gmm
    ("gmm.differenced_sample_s", "s", "lower", "pipeline_s", (BALANCED,)),
    ("gmm.differenced_sample.self_s", "s", "lower", "pipeline_s", (BALANCED,)),
    ("gmm.build_instruments_s", "s", "lower", "pipeline_s", (BALANCED,)),
    ("gmm.gmm_estimate_s", "s", "lower", "pipeline_s", (BALANCED,)),
    ("gmm.instrument_columns", "count", "lower", "peak_rss_mb", (BALANCED,)),
    ("gmm.rows", "count", "higher", "pipeline_s", (BALANCED,)),
    ("gmm.dropped_columns", "count", "lower", "pipeline_s", (BALANCED,)),
    # fmols
    ("fmols.fmols_panel_s", "s", "lower", "pipeline_s", (GAPPY, BALANCED)),
    ("fmols.fmols_panel.self_s", "s", "lower", "pipeline_s", (GAPPY, BALANCED)),
    ("fmols.long_run_covariances.calls", "count", "lower", "pipeline_s", (GAPPY, BALANCED)),
    ("fmols.long_run_covariances_s", "s", "lower", "pipeline_s", (GAPPY, BALANCED)),
    # effects
    ("effects.fixed_effects_s", "s", "lower", "pipeline_s", (GAPPY,)),
    ("effects.random_effects_s", "s", "lower", "pipeline_s", (GAPPY,)),
    ("effects.hausman_s", "s", "lower", "pipeline_s", (GAPPY,)),
    # descriptives
    ("descriptives.describe_table_s", "s", "lower", "pipeline_s", ALL),
    ("descriptives.correlation_matrix_s", "s", "lower", "pipeline_s", ALL),
    # report.render
    ("render.build_tables_s", "s", "lower", "pipeline_s", (PAPER,)),
    ("render.render_table.calls", "count", "lower", "pipeline_s", (PAPER,)),
    ("render.render_table_s", "s", "lower", "pipeline_s", (PAPER,)),
    ("render.bytes", "bytes", "lower", "pipeline_s", (PAPER,)),
    # report.config (fresh-interpreter set-up)
    ("setup.import_s", "s", "lower", "setup_s", ALL),
    ("setup.config_s", "s", "lower", "setup_s", ALL),
    # the tracer itself
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced pipeline_s)", ALL),
    ("trace.overhead_share", "%", "lower", "none (overhead over untraced pipeline_s)", ALL),
    ("trace.wrapper_cost_s", "s", "lower", "none (wrapped calls x per-call wrapper cost)", ALL),
)
