"""Tests for config validation, table rendering, and the report pipeline."""

import copy
import csv as csv_mod
import io
import json
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from panelmetrics.data import ModelSpec, PanelDataset, VariableSeries
from panelmetrics.descriptives import describe
from panelmetrics.effects import HausmanResult
from panelmetrics.report.config import (
    ConfigError,
    OutputOptions,
    VariableDef,
    load_config,
    validate_config,
)
from panelmetrics.report import pipeline
from panelmetrics.report.pipeline import (
    IngestError,
    PipelineIOError,
    ingest_dataset,
    run_pipeline,
    transform_dataset,
    write_ingested,
)
from panelmetrics.report.render import (
    TableArtifact,
    build_comparison_table,
    build_descriptive_table,
    build_fmols_table,
    build_gmm_table,
    build_hausman_table,
    format_number,
    render_table,
    significance_star,
    to_json,
)


def write_panel_file(path, n=40, width=9, gap_entity=None):
    """Wide CSV with an AR dependent and two persistent regressors.

    gap_entity: entity index whose later rows are blanked, leaving too few
    usable rows for the cointegrating estimator in every equation.
    """
    rng = np.random.default_rng(6021)
    x1 = np.cumsum(0.1 * rng.standard_normal((n, width)), axis=1) + 5.0
    x2 = np.cumsum(0.1 * rng.standard_normal((n, width)), axis=1) + 3.0
    c = 0.2 * rng.standard_normal(n)
    y = np.empty((n, width))
    y[:, 0] = 2.0 + c
    for t in range(1, width):
        y[:, t] = c + 0.5 * y[:, t - 1] + 0.05 * x1[:, t - 1] + 0.01 * rng.standard_normal(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(["entity", "year", "y", "x1", "x2"])
        for i in range(n):
            for j in range(width):
                hide = gap_entity is not None and i == gap_entity and j >= 4
                writer.writerow(
                    [
                        f"E{i:02d}",
                        2013 + j,
                        "" if hide else repr(float(y[i, j])),
                        repr(float(x1[i, j])),
                        repr(float(x2[i, j])),
                    ]
                )
    return path


def config_doc(data_path, **overrides):
    """Valid config document for the two-equation test panel."""
    doc = {
        "config_version": 1,
        "seed": 99,
        "data": {"source": "file", "path": str(data_path), "schema": "wide"},
        "variables": [
            {"name": "y"},
            {"name": "x1"},
            {"name": "x2"},
        ],
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
        "output": {"directory": "out", "formats": ["md", "json"]},
    }
    doc.update(overrides)
    return doc


@pytest.fixture()
def panel_config(tmp_path):
    path = write_panel_file(tmp_path / "panel.csv")
    return validate_config(config_doc(path, output={"directory": str(tmp_path / "out")}))


@dataclass
class StubEstimate:
    """Minimal estimation result for the table builders."""

    columns: tuple
    coefficients: np.ndarray
    p_values: np.ndarray
    std_errors: np.ndarray = None
    t_stats: np.ndarray = None
    n_obs: int = 50
    n_entities: int = 10
    periods_included: int = 5
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        k = len(self.columns)
        if self.std_errors is None:
            self.std_errors = np.ones(k)
        if self.t_stats is None:
            self.t_stats = np.asarray(self.coefficients) / self.std_errors
        for name, value in self.extras.items():
            object.__setattr__(self, name, value)


def gmm_stub(columns, coefficients, p_values, **extras):
    extras = {"j_stat": 4.2, "j_df": 3, "j_p": 0.24, "instrument_count": 5} | extras
    return StubEstimate(
        columns=columns,
        coefficients=np.asarray(coefficients, dtype=float),
        p_values=np.asarray(p_values, dtype=float),
        extras=extras,
    )


def fmols_stub(columns, coefficients, p_values, **extras):
    extras = {"r_squared": 0.9, "adj_r_squared": 0.88} | extras
    return StubEstimate(
        columns=columns,
        coefficients=np.asarray(coefficients, dtype=float),
        p_values=np.asarray(p_values, dtype=float),
        extras=extras,
    )


class TestConfigValidation:
    def base(self, tmp_path):
        return config_doc(write_panel_file(tmp_path / "p.csv"))

    def test_valid_document_accepted(self, tmp_path):
        config = validate_config(self.base(tmp_path))
        assert config.seed == 99
        assert [m.label for m in config.models] == ["1", "2"]
        assert config.analysis_series() == ("y", "x1", "x2")
        assert config.stages == (
            "describe", "correlation", "unitroot", "hausman", "gmm", "fmols", "comparison",
        )

    def test_version_required(self, tmp_path):
        doc = self.base(tmp_path)
        doc["config_version"] = 2
        with pytest.raises(ConfigError, match="config_version"):
            validate_config(doc)
        del doc["config_version"]
        with pytest.raises(ConfigError, match="config_version"):
            validate_config(doc)

    def test_seed_required_and_checked(self, tmp_path):
        doc = self.base(tmp_path)
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed: required"):
            validate_config(doc)
        for bad in (True, -1, 2**64, "7"):
            doc["seed"] = bad
            with pytest.raises(ConfigError, match="seed"):
                validate_config(doc)

    def test_unknown_keys_rejected_everywhere(self, tmp_path):
        doc = self.base(tmp_path)
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*extra"):
            validate_config(doc)
        doc = self.base(tmp_path)
        doc["variables"][0]["typo"] = 1
        with pytest.raises(ConfigError, match=r"variables\[0\]: unknown keys"):
            validate_config(doc)
        doc = self.base(tmp_path)
        doc["models"][1]["weighting"] = "fancy"
        with pytest.raises(ConfigError, match=r"models\[1\]: unknown keys"):
            validate_config(doc)

    def test_model_intercept_key_rejected(self, tmp_path):
        # every estimator fits entity effects; there is no intercept to choose
        doc = self.base(tmp_path)
        doc["models"][0]["intercept"] = "individual"
        with pytest.raises(ConfigError, match=r"models\[0\]: unknown keys \['intercept'\]"):
            validate_config(doc)

    def test_undefined_references_rejected(self, tmp_path):
        doc = self.base(tmp_path)
        doc["models"][0]["regressors"][0]["var"] = "ghost"
        with pytest.raises(ConfigError, match="'ghost' is not a defined series"):
            validate_config(doc)
        doc = self.base(tmp_path)
        doc["models"][0]["dependent"] = "ghost"
        with pytest.raises(ConfigError, match="not a defined series"):
            validate_config(doc)

    def test_log_variables_define_ln_series(self, tmp_path):
        doc = self.base(tmp_path)
        doc["variables"][0]["log"] = True
        doc["models"][0]["dependent"] = "ln_y"
        doc["models"][1]["dependent"] = "ln_y"
        config = validate_config(doc)
        assert config.analysis_series() == ("ln_y", "x1", "x2")

    def test_duplicates_rejected(self, tmp_path):
        doc = self.base(tmp_path)
        doc["variables"].append({"name": "y"})
        with pytest.raises(ConfigError, match="duplicate variable"):
            validate_config(doc)
        doc = self.base(tmp_path)
        doc["models"][1]["label"] = "1"
        with pytest.raises(ConfigError, match="duplicate model label"):
            validate_config(doc)

    @pytest.mark.parametrize(
        "first,second,series",
        [
            ({"name": "y", "log": True}, {"name": "ln_y"}, "ln_y"),
            ({"name": "ln_y"}, {"name": "y", "log": True}, "ln_y"),
            ({"name": "ln_y", "log": True}, {"name": "y", "log": True}, "ln_y"),
        ],
    )
    def test_variables_defining_one_series_rejected(self, tmp_path, first, second, series):
        doc = self.base(tmp_path)
        doc["variables"][0] = first
        doc["variables"].append(second)
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert str(err.value) == (
            f"variables[3]: duplicate variable series {series!r}, also defined by variables[0]"
        )

    @pytest.mark.parametrize(
        "key,value,where",
        [
            ("stages", [{"a": 1}], "stages"),
            ("tests", {"variables": [{"a": 1}]}, "tests.variables"),
            ("output", {"formats": [["md"]]}, "output.formats"),
        ],
    )
    def test_non_string_list_entries_rejected(self, tmp_path, key, value, where):
        doc = self.base(tmp_path)
        doc[key] = value
        message = rf"^{re.escape(where)}: expected a .*list of strings$"
        with pytest.raises(ConfigError, match=message):
            validate_config(doc)

    @pytest.mark.parametrize("value", [False, 0, "", {}], ids=["false", "zero", "empty-str", "empty-map"])
    def test_falsy_non_list_test_variables_rejected(self, tmp_path, value):
        # only null and [] mean "all series"; other falsy values are not lists
        doc = self.base(tmp_path)
        doc["tests"] = {"variables": value}
        with pytest.raises(ConfigError, match=r"^tests\.variables: expected a list of strings$"):
            validate_config(doc)

    @pytest.mark.parametrize("value", [None, []], ids=["null", "empty-list"])
    def test_null_or_empty_test_variables_mean_all_series(self, tmp_path, value):
        doc = self.base(tmp_path)
        doc["tests"] = {"variables": value}
        assert validate_config(doc).tests.variables == ()

    def test_fetch_source_year_range_checked(self, tmp_path):
        doc = self.base(tmp_path)
        doc["data"] = {
            "source": "fetch",
            "base_url": "http://localhost:1",
            "provider": "prov",
            "years": "2021:2013",
        }
        with pytest.raises(ConfigError, match="range start after end"):
            validate_config(doc)
        doc["data"]["years"] = "13:21"
        with pytest.raises(ConfigError, match="YYYY:YYYY"):
            validate_config(doc)

    def test_schema_and_det_whitelists(self, tmp_path):
        doc = self.base(tmp_path)
        doc["data"]["schema"] = "tall"
        with pytest.raises(ConfigError, match="'wide' or 'long'"):
            validate_config(doc)
        doc = self.base(tmp_path)
        doc["tests"] = {"det": "quadratic"}
        with pytest.raises(ConfigError, match=r"^tests\.det: expected one of \['n', 'c', 'ct'\], "
                                              r"got 'quadratic'$"):
            validate_config(doc)

    def test_stage_and_format_whitelists(self, tmp_path):
        doc = self.base(tmp_path)
        doc["stages"] = ["describe", "plots"]
        with pytest.raises(ConfigError, match="unknown entries.*plots"):
            validate_config(doc)
        doc = self.base(tmp_path)
        doc["output"]["formats"] = ["pdf"]
        with pytest.raises(ConfigError, match="unknown entries.*pdf"):
            validate_config(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(data=["file"]), "data: expected a mapping, got list"),
        (lambda doc: doc["data"].pop("path"), "data: missing required key 'path'"),
        (lambda doc: doc["data"].update(path=""), "data.path: expected a nonempty string"),
        (lambda doc: doc["models"][0].update(lagged_dependent="yes"),
         "models[0].lagged_dependent: expected true/false"),
        (lambda doc: doc.update(tests={"lags": 1.5}), "tests.lags: expected an integer, 'auto', or 'all'"),
        (lambda doc: doc.update(tests={"gmm_depth": 0}), "tests.gmm_depth: must be >= 1"),
        (lambda doc: doc.update(stages=[]), "stages: expected a nonempty list of strings"),
        (lambda doc: doc["data"].update(source="ftp"), "data.source: expected 'file' or 'fetch', got 'ftp'"),
        (lambda doc: doc.update(variables=[]), "variables: expected a nonempty list"),
        (lambda doc: doc.update(models=[]), "models: expected a nonempty list"),
        (lambda doc: doc["models"][0].update(regressors=[]), "models[0].regressors: expected a nonempty list"),
        (lambda doc: doc["models"][0]["regressors"][0].update(lag=-1),
         "models[0].regressors[0].lag: expected an integer >= 0"),
        (lambda doc: doc["models"][0]["regressors"][0].update(lag=True),
         "models[0].regressors[0].lag: expected an integer >= 0"),
        (lambda doc: doc.update(tests={"variables": ["y", "ghost", "alpha"]}),
         "tests.variables: ['alpha', 'ghost'] are not defined series"),
    ], ids=["non-mapping-section", "missing-key", "empty-string", "non-bool-flag", "non-integer-lags",
            "zero-gmm-depth", "empty-stages", "unknown-source", "empty-variables", "empty-models",
            "empty-regressors", "negative-lag", "bool-lag", "undefined-test-variables"])
    def test_refusal_names_the_key(self, tmp_path, edit, message):
        doc = self.base(tmp_path)
        edit(doc)
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert str(err.value) == message

    def test_missing_output_block_takes_the_defaults(self, tmp_path):
        doc = self.base(tmp_path)
        del doc["output"]
        assert validate_config(doc).output == OutputOptions()

    def test_load_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("models: [unclosed\n")
        with pytest.raises(ConfigError, match="valid YAML"):
            load_config(bad)


class TestDigest:
    def test_stable_across_identical_documents(self, tmp_path):
        doc = config_doc(write_panel_file(tmp_path / "p.csv"))
        assert validate_config(doc).digest() == validate_config(copy.deepcopy(doc)).digest()

    def test_output_location_excluded(self, tmp_path):
        doc = config_doc(write_panel_file(tmp_path / "p.csv"))
        other = copy.deepcopy(doc)
        other["output"] = {"directory": "elsewhere", "formats": ["csv"]}
        assert validate_config(doc).digest() == validate_config(other).digest()

    def test_seed_changes_digest(self, tmp_path):
        doc = config_doc(write_panel_file(tmp_path / "p.csv"))
        config = validate_config(doc)
        assert config.digest() != validate_config(dict(doc, seed=100)).digest()
        assert config.digest() == config.with_overrides(out_dir="elsewhere").digest()
        staged = validate_config(dict(doc, stages=["gmm", "describe"])).digest()
        assert config.with_overrides(stages=["describe", "gmm"]).digest() == staged
        assert staged != config.digest()

    # pinned so that any change to the hashed record shows; the paths are plain
    # strings, so no file is read
    GOLDEN = {
        "file_defaults": ({}, "b6cc757df72107b575514055f5ba361587bc08296606fd71d06a94cdb1227d76"),
        "fetch": (
            {"seed": 7, "data": {"source": "fetch", "base_url": "http://127.0.0.1:8000/v2",
                                 "provider": "WB", "years": "2000:2019"}},
            "ee44906ebe22ba9a99883d10519ecc04b54a466481811a444b0b555790e24302",
        ),
        "every_test_key": (
            {"data": {"source": "file", "path": "long.csv", "schema": "long"},
             "tests": {"det": "ct", "lags": 2, "bandwidth": 3, "gmm_depth": 2,
                       "gmm_collapse": True, "variables": ["x1", "y"]}},
            "957b699e04dc36f208ffaddc09ce5374a56cd5bc096b5d559b68ffa080ee3984",
        ),
        "stage_subset": (
            {"stages": ["gmm", "describe", "fmols"], "output": {"directory": "o", "formats": ["csv"]}},
            "617ffe19c327cfb66111d5327513cbd6db285a31728ea4b48158a8c8cb2796f7",
        ),
        "logged_renamed": (
            {"seed": 2**64 - 1,
             "variables": [{"name": "gdp", "source": "NY.GDP.PCAP", "log": True}, {"name": "y"},
                           {"name": "x1", "source": "X1"}],
             "models": [{"label": "growth", "dependent": "y",
                         "regressors": [{"var": "ln_gdp"}, {"var": "x1", "lag": 2}]},
                        {"dependent": "ln_gdp", "regressors": [{"var": "gdp", "lag": 0}]}],
             "tests": {"bandwidth": "auto", "gmm_depth": "all"}},
            "e63d0be72fbc14e6e499db4d8b2e31d4fd5393877321fd35e8fc2aaca4b33059",
        ),
    }

    @pytest.mark.parametrize("case", GOLDEN)
    def test_golden_digests(self, case):
        overrides, expected = self.GOLDEN[case]
        doc = config_doc("data/panel.csv", output={"directory": "out"}) | overrides
        assert validate_config(doc).digest() == expected


class TestFormatting:
    def test_six_decimal_display(self):
        assert format_number(3.9613912) == "3.961391"
        assert format_number(2) == "2.000000"
        assert format_number(-0.25) == "-0.250000"

    def test_missing_values_display_na(self):
        assert format_number(None) == "NA"
        assert format_number(float("nan")) == "NA"
        assert format_number(float("inf")) == "NA"

    def test_star_boundary(self):
        # caption reads ** for p > 0.05 and * for p < 0.05; ties go to **
        assert significance_star(0.05) == "**"
        assert significance_star(0.0499999) == "*"
        assert significance_star(0.0500001) == "**"
        assert significance_star(0.9001) == "**"
        assert significance_star(0.0186) == "*"
        assert significance_star(None) == ""
        assert significance_star(float("nan")) == ""


class TestRenderers:
    def sample_table(self):
        return TableArtifact(
            name="demo",
            title="Demo",
            columns=("a", "b|c"),
            rows=(("1.5", "x|y"), ("2.5", "z")),
            values={"pi": 3.141592653589793},
            notes=("a note",),
        )

    def test_markdown_layout(self):
        text = render_table(self.sample_table(), "md")
        lines = text.splitlines()
        assert lines[0] == "# Demo"
        assert lines[2] == "| a | b\\|c |"
        assert lines[3] == "| --- | --- |"
        assert lines[4] == "| 1.5 | x\\|y |"
        assert lines[-1] == "Note: a note"

    def test_csv_round_trip(self):
        text = render_table(self.sample_table(), "csv")
        rows = list(csv_mod.reader(io.StringIO(text)))
        assert rows == [["a", "b|c"], ["1.5", "x|y"], ["2.5", "z"]]

    def test_json_full_precision_round_trip(self):
        parsed = json.loads(to_json(self.sample_table()))
        assert parsed["values"]["pi"] == 3.141592653589793
        assert parsed["rows"] == [["1.5", "x|y"], ["2.5", "z"]]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_table(self.sample_table(), "pdf")


class TestTableBuilders:
    def test_descriptive_rows_in_summary_order(self):
        stats = describe(VariableSeries("v", ("A",), (1, 2, 3, 4, 5), [[1.0, 2.0, 3.0, 4.0, 10.0]]))
        table = build_descriptive_table([stats])
        labels = [row[0] for row in table.rows]
        assert labels == [
            "Mean", "Median", "Maximum", "Minimum", "Std. Dev.", "Skewness",
            "Kurtosis", "Jarque-Bera", "Probability", "Sum", "Sum Sq. Dev.",
            "Observations",
        ]
        assert table.rows[0][1] == format_number(stats.mean)
        assert table.rows[-1][1] == "5"
        assert table.values["v"]["mean"] == stats.mean

    def test_gmm_table_furniture(self):
        res = gmm_stub(("y_lag1", "x_lag1"), [0.9, 0.02], [0.0, 0.0186])
        table = build_gmm_table([res], ["1"])
        labels = [row[0] for row in table.rows]
        assert labels == [
            "y_lag1", "y_lag1 (p)", "x_lag1", "x_lag1 (p)",
            "J statistic", "J probability", "Instruments",
            "Periods included", "Cross-sections included", "Total panel observations",
        ]
        grid = {row[0]: row[1] for row in table.rows}
        assert grid["x_lag1 (p)"] == "0.018600*"
        assert grid["Instruments"] == "5"
        assert table.values["1"]["j_p"] == 0.24

    def test_gmm_exactly_identified_shows_na(self):
        res = gmm_stub(("y_lag1",), [0.9], [0.0], j_df=0, j_p=None, j_stat=0.0)
        table = build_gmm_table([res], ["1"])
        grid = {row[0]: row[1] for row in table.rows}
        assert grid["J probability"] == "NA"

    def test_fmols_table_furniture(self):
        res = fmols_stub(("x",), [1.5], [0.9001])
        table = build_fmols_table([res], ["1"])
        grid = {row[0]: row[1] for row in table.rows}
        assert grid["x (p)"] == "0.900100**"
        assert grid["R squared"] == "0.900000"

    def test_hausman_row_layout(self):
        hz = HausmanResult(
            statistic=25.1, df=1, p_value=0.0,
            columns=("x",), coefficient_gap=np.array([0.006442]),
        )
        table = build_hausman_table([("1", "x", 0.00542, -0.001022, hz)])
        assert table.columns == ("equation", "variable", "fixed", "random", "p value")
        assert table.rows[0] == ("1", "x", "0.005420", "-0.001022", "0.000000")
        assert table.values["1"]["statistic"] == 25.1

    def test_comparison_disagreement_pattern(self):
        # significant under GMM only: starred GMM cell, double-star FMOLS cell
        spec = ModelSpec(
            label="1", dependent="y", regressors=(("x", 1),), lagged_dependent=True
        )
        gm = gmm_stub(("y_lag1", "x_lag1"), [0.9, 0.03], [0.0, 0.0186])
        fm = fmols_stub(("y_lag1", "x_lag1"), [0.91, 0.025], [0.0, 0.2113])
        table = build_comparison_table([spec], [gm], [fm])
        assert len(table.rows) == 1  # the lagged dependent is excluded
        row = table.rows[0]
        assert row[1] == "x_lag1"
        assert row[3] == "(0.018600*)"
        assert row[5] == "(0.211300**)"
        assert row[6] == "differs"
        assert table.values["1"]["x_lag1"]["consistent"] is False

    def test_comparison_agreement(self):
        spec = ModelSpec(
            label="1", dependent="y", regressors=(("x", 1),), lagged_dependent=True
        )
        gm = gmm_stub(("y_lag1", "x_lag1"), [0.9, 0.03], [0.0, 0.001])
        fm = fmols_stub(("y_lag1", "x_lag1"), [0.91, 0.025], [0.0, 0.002])
        table = build_comparison_table([spec], [gm], [fm])
        assert table.rows[0][6] == "consistent"

    def test_json_carries_full_precision(self):
        res = gmm_stub(("x",), [1 / 3], [2 / 300])
        payload = json.loads(to_json(build_gmm_table([res], ["1"])))
        assert payload["values"]["1"]["coefficients"][0] == 1 / 3
        assert payload["values"]["1"]["p_values"][0] == 2 / 300


class TestPipeline:
    def test_transform_leaves_input_unchanged(self, tmp_path):
        path = write_panel_file(tmp_path / "panel.csv")
        doc = config_doc(path)
        doc["variables"] = [
            {"name": "y"},
            {"name": "aid", "source": "x1", "log": True},
            {"name": "x2"},
        ]
        doc["models"][0]["regressors"] = [{"var": "ln_aid", "lag": 1}]
        config = validate_config(doc)
        raw = ingest_dataset(config)
        out = transform_dataset(config, raw)
        assert tuple(raw.variables) == ("y", "x1", "x2")
        assert tuple(out.variables) == ("y", "x1", "x2", "aid", "ln_aid")
    @pytest.mark.parametrize("order", [1, -1])
    def test_transform_reads_each_source_from_the_input(self, panel_config, order):
        grid = np.ones((2, 3))
        raw = PanelDataset(entities=("A", "B"), periods=(2000, 2001, 2002))
        for name, value in (("b", 1.0), ("c", 2.0)):
            raw.add(VariableSeries(name, raw.entities, raw.periods, value * grid))
        variables = (VariableDef(name="b", source="c"), VariableDef(name="a", source="b"))
        out = transform_dataset(replace(panel_config, variables=variables[::order]), raw)
        assert (out["a"].values == 1.0).all()
        assert (out["b"].values == 2.0).all()
        assert (out["c"].values == 2.0).all()

    def test_all_stages_on_small_panel(self, panel_config):
        bundle = run_pipeline(panel_config)
        assert not bundle.failed
        assert set(bundle.tables) == {
            "describe", "correlation", "unitroot", "hausman", "gmm", "fmols", "comparison",
        }
        assert set(bundle.manifest["artifacts"]) == set(bundle.tables)
        manifest = bundle.manifest
        assert manifest["seed"] == 99
        assert manifest["config_digest"] == panel_config.digest()
        # 40 entities against 29 instruments: the two-step weighting has full rank
        gmm_values = bundle.tables["gmm"].values.values()
        assert all(v["instrument_count"] < v["n_entities"] for v in gmm_values)
        assert all(se > 0 for v in gmm_values for se in v["std_errors"])

    def test_reruns_byte_identical(self, tmp_path):
        path = write_panel_file(tmp_path / "panel.csv")
        config = validate_config(config_doc(path))
        names = None
        contents = []
        for out in ("out_a", "out_b"):
            cfg = config.with_overrides(out_dir=str(tmp_path / out))
            bundle = run_pipeline(cfg, write=True)
            assert not bundle.failed
            files = sorted(
                f for f in os.listdir(bundle.out_dir) if f != "timings.json"
            )
            if names is None:
                names = files
            assert files == names
            contents.append(
                {f: open(os.path.join(bundle.out_dir, f), "rb").read() for f in files}
            )
        assert contents[0] == contents[1]

    def test_rerun_into_same_directory_same_bytes(self, panel_config):
        def read(out_dir):
            return {f: open(os.path.join(out_dir, f), "rb").read()
                    for f in sorted(os.listdir(out_dir)) if f != "timings.json"}

        first = read(run_pipeline(panel_config, write=True).out_dir)
        assert "manifest.json" in first
        with open(os.path.join(panel_config.output.directory, "notes.txt"), "w") as fh:
            fh.write("kept\n")
        again = read(run_pipeline(panel_config, write=True).out_dir)
        assert again.pop("notes.txt") == b"kept\n"
        assert again == first

    @pytest.mark.parametrize("failing_call", [1, 10, 21, 22])
    def test_failed_write_leaves_no_manifest(self, panel_config, monkeypatch, failing_call):
        # seven stages in three formats are 21 artifact writes; the 22nd is the manifest
        run_pipeline(panel_config, write=True)
        manifest = os.path.join(panel_config.output.directory, "manifest.json")
        assert os.path.exists(manifest)
        write_text, calls = pipeline._write_text, []

        def failing(path, text):
            calls.append(os.path.basename(path))
            if len(calls) == failing_call:
                raise PipelineIOError(f"cannot write {path}: disk full")
            write_text(path, text)

        monkeypatch.setattr(pipeline, "_write_text", failing)
        with pytest.raises(PipelineIOError, match="disk full"):
            run_pipeline(panel_config, write=True)
        assert (calls[-1] == "manifest.json") == (failing_call == 22)
        assert not os.path.exists(manifest)

    def test_disabling_stage_isolates_outputs(self, tmp_path):
        path = write_panel_file(tmp_path / "panel.csv")
        config = validate_config(config_doc(path))
        full = run_pipeline(
            config.with_overrides(out_dir=str(tmp_path / "full")), write=True
        )
        partial_stages = ("describe", "correlation", "unitroot", "hausman", "fmols")
        partial = run_pipeline(
            config.with_overrides(
                out_dir=str(tmp_path / "partial"), stages=partial_stages
            ),
            write=True,
        )
        assert not partial.failed
        for stage in partial_stages:
            for fmt in ("md", "json"):
                name = f"{stage}.{fmt}"
                with open(os.path.join(full.out_dir, name), "rb") as fh:
                    full_bytes = fh.read()
                with open(os.path.join(partial.out_dir, name), "rb") as fh:
                    assert fh.read() == full_bytes, name

    def test_comparison_needs_both_estimators(self, panel_config):
        config = panel_config.with_overrides(
            stages=("describe", "fmols", "comparison")
        )
        bundle = run_pipeline(config)
        assert bundle.failed
        assert "gmm" in bundle.errors["comparison"]
        assert "comparison" not in bundle.tables
        assert "fmols" in bundle.tables  # earlier stages unaffected

    def test_stage_failure_recorded_not_raised(self, tmp_path):
        path = write_panel_file(tmp_path / "panel.csv")
        doc = config_doc(path, output={"directory": str(tmp_path / "out")})
        for model in doc["models"]:
            model["lagged_dependent"] = False  # static specs break GMM only
        bundle = run_pipeline(validate_config(doc))
        assert set(bundle.errors) == {"gmm", "comparison"}
        assert "lagged-dependent" in bundle.errors["gmm"]
        assert "fmols" in bundle.tables
        assert bundle.manifest["errors"] == bundle.errors

    def test_repeated_warning_recorded_once(self, tmp_path):
        # the same short-entity warning fires in both equations; the
        # manifest keeps a single record
        path = write_panel_file(tmp_path / "panel.csv", gap_entity=3)
        doc = config_doc(path, output={"directory": str(tmp_path / "out")})
        bundle = run_pipeline(validate_config(doc))
        matching = [
            w["message"]
            for w in bundle.manifest["warnings"]
            if "shorter than" in w["message"]
        ]
        assert len(matching) == 1

    def test_artifact_checksums_match_files(self, panel_config):
        bundle = run_pipeline(panel_config, write=True)
        import hashlib

        for stage, entry in bundle.manifest["artifacts"].items():
            for fmt, meta in entry.items():
                with open(os.path.join(bundle.out_dir, meta["path"]), "rb") as fh:
                    assert hashlib.sha256(fh.read()).hexdigest() == meta["sha256"]

    def test_missing_data_file_is_io_error(self, tmp_path):
        doc = config_doc(tmp_path / "absent.csv", output={"directory": str(tmp_path / "out")})
        with pytest.raises(PipelineIOError, match="cannot read data file"):
            run_pipeline(validate_config(doc))
        assert not (tmp_path / "out").exists()

    def test_output_directory_under_a_file_is_io_error(self, panel_config, tmp_path):
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        out_dir = str(tmp_path / "blocker" / "out")
        with pytest.raises(PipelineIOError,
                           match=f"^cannot create output directory {re.escape(out_dir)}: "):
            run_pipeline(panel_config.with_overrides(out_dir=out_dir))

    def test_missing_source_column_is_ingest_error(self, tmp_path):
        path = write_panel_file(tmp_path / "panel.csv")
        doc = config_doc(path)
        doc["variables"].append({"name": "ghost"})
        with pytest.raises(IngestError, match="ghost"):
            ingest_dataset(validate_config(doc))

    def test_write_ingested_round_trips(self, tmp_path):
        from panelmetrics.data import read_panel_csv

        path = write_panel_file(tmp_path / "panel.csv")
        config = validate_config(
            config_doc(path, output={"directory": str(tmp_path / "out")})
        )
        written = write_ingested(config)
        assert written.endswith("panel.csv")
        dataset = read_panel_csv(written, schema="long")
        assert set(config.analysis_series()) <= set(dataset.variables)
        assert len(dataset.entities) == 40
