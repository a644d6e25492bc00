"""Acceptance gates: one test per criterion, each printing a PASS line.

The six gates cover published-value identities, hand-computable oracles,
estimator-collapse identities, Monte Carlo recovery of known parameters,
byte-level pipeline reproducibility, and the qualitative magnitudes the
shipped fixture is built to display.  Every Monte Carlo seed below was
pinned after verifying the design across several seeds.
"""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import stats

from panelmetrics.data import (
    ModelSpec,
    PanelDataset,
    VariableSeries,
    regression_sample,
)
from panelmetrics.descriptives import jarque_bera
from panelmetrics.effects import (
    EffectsResult,
    fixed_effects,
    hausman,
    pooled_ols,
    random_effects,
)
from panelmetrics.fixture import fixture_path
from panelmetrics.fmols import fmols_panel
from panelmetrics.gmm import build_instruments, differenced_sample, gmm_estimate
from panelmetrics.report.cli import main as cli_main
from panelmetrics.unitroot import Runs, adf_test, fisher_adf, fisher_combine, pp_test

LEVEL_SPEC = ModelSpec(label="level", dependent="y", regressors=(("x", 0),))
AR_SPEC = ModelSpec(label="ar", dependent="y", regressors=(), lagged_dependent=True)


def panel(test, series, det="c", **options):
    """A panel test on one series laid out alone: its result, or its refusal raised."""
    (out,) = test(Runs((series,), det), **options)
    if isinstance(out, ValueError):
        raise out
    return out


def two_var_panel(y, x, start=2000):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, width = y.shape
    entities = tuple(f"E{i}" for i in range(n))
    periods = tuple(range(start, start + width))
    ds = PanelDataset(entities=entities, periods=periods)
    ds.add(VariableSeries(name="y", entities=entities, periods=periods, values=y))
    ds.add(VariableSeries(name="x", entities=entities, periods=periods, values=x))
    return ds


def y_only_panel(y, start=1):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, width = y.shape
    entities = tuple(f"E{i}" for i in range(n))
    periods = tuple(range(start, start + width))
    ds = PanelDataset(entities=entities, periods=periods)
    ds.add(VariableSeries(name="y", entities=entities, periods=periods, values=y))
    return ds


def ar_panel(rng, n, width, rho, effect_scale=0.3):
    """Stationary AR(1) panel with entity effects, returning (y, eps)."""
    c = effect_scale * rng.standard_normal(n)
    eps = rng.standard_normal((n, width))
    y = np.empty((n, width))
    y[:, 0] = c / (1 - rho) + rng.standard_normal(n) / np.sqrt(1 - rho**2)
    for t in range(1, width):
        y[:, t] = c + rho * y[:, t - 1] + eps[:, t]
    return y, eps


def stub_result(method, columns, coefficients, cov):
    coefficients = np.asarray(coefficients, dtype=float)
    cov = np.asarray(cov, dtype=float)
    se = np.sqrt(np.diag(cov))
    return EffectsResult(
        method=method,
        columns=tuple(columns),
        coefficients=coefficients,
        std_errors=se,
        t_stats=coefficients / se,
        p_values=np.full(coefficients.shape, 0.5),
        cov=cov,
        n_obs=50,
        n_entities=5,
        periods_included=10,
        df_resid=45,
        sigma2=1.0,
        r_squared=0.5,
        adj_r_squared=0.4,
        residuals=np.zeros(50),
        demeaned_dependent=np.zeros(50),
    )


def test_criterion_1_descriptive_identities():
    # Jarque-Bera recomputed from the published sample moments
    stat, p = jarque_bera(633, -0.517344, 2.859780)
    assert stat == pytest.approx(28.755, abs=0.01)
    assert f"{p:.6f}" == "0.000001"
    stat, _ = jarque_bera(633, -1.322848, 5.678379)
    assert stat == pytest.approx(373.82, abs=0.05)
    # sum/count and sum-of-squares/standard-deviation consistency
    assert 2507.560 / 633 == pytest.approx(3.961391, abs=1e-5)
    assert math.sqrt(13.51222 / 632) == pytest.approx(0.146219, abs=1e-5)
    print("criterion 1: PASS  descriptive identities hold at stated tolerances")


def test_criterion_2_hand_oracles():
    # pooled OLS on five points: slope 0.6, intercept 2.2
    ds = two_var_panel([[2.0, 4.0, 5.0, 4.0, 5.0]], [[1.0, 2.0, 3.0, 4.0, 5.0]])
    po = pooled_ols(regression_sample(ds, LEVEL_SPEC))
    assert po.coef("x") == pytest.approx(0.6, abs=1e-12)
    assert po.coef("const") == pytest.approx(2.2, abs=1e-12)

    # fixed effects equals OLS on entity dummies
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3))
    y = np.array([[1.0], [-2.0]]) + 0.7 * x + 0.1 * rng.standard_normal((2, 3))
    s = regression_sample(two_var_panel(y, x), LEVEL_SPEC)
    fe = fixed_effects(s)
    dummies = np.zeros((s.n_obs, 2))
    dummies[np.arange(s.n_obs), s.entity_ids] = 1.0
    beta = np.linalg.lstsq(np.column_stack([dummies, s.X]), s.y, rcond=None)[0]
    assert fe.coef("x") == pytest.approx(beta[2], abs=1e-10)

    # random effects equals GLS with the explicit compound-symmetry inverse
    rng = np.random.default_rng(101)
    a = rng.normal(0.0, 1.0, (3, 1))
    x = rng.standard_normal((3, 4))
    y = 2.0 + a + 0.8 * x + 0.3 * rng.standard_normal((3, 4))
    s = regression_sample(two_var_panel(y, x), LEVEL_SPEC)
    re = random_effects(s)
    comp = re.variance_components
    s2e, s2u = comp["sigma2_e"], comp["sigma2_u"]
    T = 4
    block_inv = (np.eye(T) - (s2u / (s2e + T * s2u)) * np.ones((T, T))) / s2e
    omega_inv = np.kron(np.eye(3), block_inv)
    X = np.column_stack([np.ones(s.n_obs), s.X])
    beta = np.linalg.solve(X.T @ omega_inv @ X, X.T @ omega_inv @ s.y)
    assert re.coef("const") == pytest.approx(beta[0], abs=1e-8)
    assert re.coef("x") == pytest.approx(beta[1], abs=1e-8)

    # scalar Hausman contrast: q = 0.1, var gap 0.0025 -> H = 4
    fe_stub = stub_result("fixed", ("x",), [0.6], [[0.0075]])
    re_stub = stub_result(
        "random", ("const", "x"), [1.0, 0.5], [[0.1, 0.0], [0.0, 0.005]]
    )
    h = hausman(fe_stub, re_stub)
    assert h.statistic == pytest.approx(4.0, abs=1e-10)
    assert h.p_value == pytest.approx(0.0455, abs=1e-3)

    # Fisher combination of two p = 0.05 tests
    stat, df, p = fisher_combine([0.05, 0.05])
    assert stat == pytest.approx(11.983, abs=1e-3)
    assert df == 4
    assert p == pytest.approx(0.0175, abs=1e-4)

    # exactly identified GMM has J = 0 by construction
    rng = np.random.default_rng(1)
    ds = y_only_panel(rng.standard_normal((4, 5)) + 3.0)
    s = differenced_sample(ds, AR_SPEC)
    Z = build_instruments(ds, s, max_depth=1, collapse=True)
    res = gmm_estimate(Z)
    assert Z.n_instruments == 1
    assert abs(res.j_stat) < 1e-8
    print("criterion 2: PASS  hand oracles match at stated tolerances")


def test_criterion_3_estimator_collapses():
    # FMOLS with bandwidth 0 reduces to within OLS on the aligned rows
    rng = np.random.default_rng(51)
    x = np.cumsum(rng.standard_normal((5, 30)), axis=1)
    y = 1.0 + 2.0 * x + rng.standard_normal((5, 30))
    res = fmols_panel(two_var_panel(y, x), LEVEL_SPEC, bandwidth=0)
    aligned = regression_sample(two_var_panel(y[:, 1:], x[:, 1:]), LEVEL_SPEC)
    assert abs(res.coef("x") - fixed_effects(aligned).coef("x")) < 1e-8

    # Phillips-Perron with bandwidth 0 reduces to ADF with no lags
    rng = np.random.default_rng(7)
    series = np.cumsum(rng.standard_normal(80))
    a = adf_test(series, det="c", lags=0)
    pp = pp_test(series, det="c", bandwidth=0)
    assert pp.statistic == pytest.approx(a.statistic, abs=1e-12)
    assert pp.p_value == pytest.approx(a.p_value, abs=1e-12)

    # random effects with theta forced to one reduces to fixed effects
    rng = np.random.default_rng(102)
    a = rng.normal(0.0, 1.0, (5, 1))
    x = rng.standard_normal((5, 6))
    y = 2.0 + a + 0.8 * x + 0.3 * rng.standard_normal((5, 6))
    s = regression_sample(two_var_panel(y, x), LEVEL_SPEC)
    fe = fixed_effects(s)
    re = random_effects(s, theta_override=1.0)
    assert re.coef("x") == pytest.approx(fe.coef("x"), abs=1e-10)
    print("criterion 3: PASS  estimator collapses hold at stated tolerances")


def test_criterion_4_monte_carlo_recovery():
    # (a) cointegrating slope recovery and endogeneity correction
    rng = np.random.default_rng(52)
    errs = []
    for _ in range(100):
        x = np.cumsum(rng.standard_normal((20, 50)), axis=1)
        y = 2.0 * x + rng.standard_normal((20, 50))
        errs.append(fmols_panel(two_var_panel(y, x), LEVEL_SPEC).coef("x") - 2.0)
    mean_abs_err = np.mean(np.abs(errs))
    assert mean_abs_err <= 0.05

    rng = np.random.default_rng(53)
    fm, within = [], []
    for _ in range(200):
        w = rng.standard_normal((20, 50))
        x = np.cumsum(w, axis=1)
        y = 2.0 * x + 0.6 * w + 0.8 * rng.standard_normal((20, 50))
        ds = two_var_panel(y, x)
        fm.append(fmols_panel(ds, LEVEL_SPEC).coef("x") - 2.0)
        within.append(
            fixed_effects(regression_sample(ds, LEVEL_SPEC)).coef("x") - 2.0
        )
    assert abs(np.mean(fm)) < abs(np.mean(within))

    # (b) dynamic-panel GMM against the short-panel within bias
    rng = np.random.default_rng(92)
    gmm_bias, within_bias = [], []
    for _ in range(100):
        y, _ = ar_panel(rng, 100, 8, 0.8)
        ds = y_only_panel(y)
        s = differenced_sample(ds, AR_SPEC)
        Z = build_instruments(ds, s, max_depth=2, collapse=True)
        gmm_bias.append(gmm_estimate(Z).coef("y_lag1") - 0.8)
        within_bias.append(
            fixed_effects(regression_sample(ds, AR_SPEC)).coef("y_lag1") - 0.8
        )
    assert abs(np.mean(gmm_bias)) <= 0.03
    assert np.mean(within_bias) < -0.05

    # (c) panel unit-root size on random walks, power on their differences
    rng = np.random.default_rng(200)
    entities = tuple(f"E{i}" for i in range(10))
    plvl = tuple(range(2000, 2050))
    pdif = tuple(range(2001, 2050))
    rej_level = rej_diff = 0
    for _ in range(500):
        y = np.cumsum(rng.standard_normal((10, 50)), axis=1)
        lvl = VariableSeries(name="y", entities=entities, periods=plvl, values=y)
        dif = VariableSeries(
            name="dy", entities=entities, periods=pdif, values=np.diff(y, axis=1)
        )
        rej_level += panel(fisher_adf, lvl, "c", lags=0).p_value < 0.05
        rej_diff += panel(fisher_adf, dif, "c", lags=0).p_value < 0.05
    assert 0.02 <= rej_level / 500 <= 0.09
    assert rej_diff / 500 >= 0.95

    # (d) Hausman size under exogenous effects, power under correlated ones
    def hausman_rejections(seed, corr):
        rng = np.random.default_rng(seed)
        rej = 0
        for _ in range(500):
            w = rng.standard_normal((74, 1))
            x = w + rng.standard_normal((74, 9))
            c = corr * w + np.sqrt(1.0 - corr**2) * rng.standard_normal((74, 1))
            y = 1.0 + c + 0.6 * x + rng.standard_normal((74, 9))
            s = regression_sample(two_var_panel(y, x), LEVEL_SPEC)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                h = hausman(fixed_effects(s), random_effects(s))
            if np.isfinite(h.p_value) and h.p_value < 0.05:
                rej += 1
        return rej / 500

    size = hausman_rejections(300, 0.0)
    power = hausman_rejections(350, 0.5)
    assert size <= 0.10
    assert power >= 0.80

    # (e) J-test p-values: uniform under valid moments, sensitive to a
    # column correlated 0.4 with the differenced error
    rng = np.random.default_rng(100)
    pvals = []
    for _ in range(200):
        y, _ = ar_panel(rng, 80, 7, 0.5)
        ds = y_only_panel(y)
        s = differenced_sample(ds, AR_SPEC)
        Z = build_instruments(ds, s, collapse=True)
        pvals.append(gmm_estimate(Z).j_p)
    p = np.sort(pvals)
    grid = np.arange(1, p.size + 1) / p.size
    ks = max(np.max(np.abs(grid - p)), np.max(np.abs(grid - 1.0 / p.size - p)))
    assert ks < 0.12

    rng = np.random.default_rng(100)
    noise_scale = np.sqrt(2.0) * np.sqrt(1.0 / 0.16 - 1.0)
    rejections = 0
    for _ in range(200):
        y, eps = ar_panel(rng, 80, 7, 0.5)
        ds = y_only_panel(y)
        s = differenced_sample(ds, AR_SPEC)
        Z = build_instruments(ds, s, collapse=True)
        i = np.array([int(e[1:]) for e in s.entities])[s.entity_ids]
        diff_err = eps[i, s.periods - 1] - eps[i, s.periods - 2]
        bad = diff_err + noise_scale * rng.standard_normal(diff_err.size)
        contaminated = replace(
            Z, columns=Z.columns + ("z_bad",), dense=np.column_stack([Z.dense, bad])
        )
        rejections += gmm_estimate(contaminated).j_p < 0.05
    assert rejections / 200 > 0.50
    print(
        "criterion 4: PASS  "
        f"fmols mean|err| {mean_abs_err:.4f}, gmm bias {np.mean(gmm_bias):+.4f}, "
        f"unit-root size/power {rej_level / 500:.3f}/{rej_diff / 500:.3f}, "
        f"hausman size/power {size:.3f}/{power:.3f}, "
        f"J KS {ks:.3f}, J power {rejections / 200:.3f}"
    )


EQUATION_REGRESSORS = {
    "1": "ln_oda_per_capita",
    "2": "ln_innovation",
    "3": "ln_rule_of_law",
    "4": "ln_aid_infrastructure",
    "5": "ln_aid_education",
}


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    doc = {
        "config_version": 1,
        "seed": 20260816,
        "data": {"source": "file", "path": fixture_path(), "schema": "wide"},
        "variables": [
            {"name": "prosperity", "log": True},
            {"name": "oda_per_capita", "log": True},
            {"name": "innovation", "log": True},
            {"name": "rule_of_law", "log": True},
            {"name": "aid_infrastructure", "log": True},
            {"name": "aid_education", "log": True},
        ],
        "models": [
            {
                "label": label,
                "dependent": "ln_prosperity",
                "regressors": [{"var": var, "lag": 1}],
                "lagged_dependent": True,
            }
            for label, var in EQUATION_REGRESSORS.items()
        ],
        "tests": {"det": "c"},
        "output": {"directory": str(base / "out_a"), "formats": ["md", "csv", "json"]},
    }
    cfg = base / "run.yaml"
    cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
    code_a = cli_main(["run", "--config", str(cfg)])
    code_b = cli_main(["run", "--config", str(cfg), "--out", str(base / "out_b")])
    return code_a, code_b, base / "out_a", base / "out_b"


def test_criterion_5_pipeline_reproducibility(pipeline_runs):
    code_a, code_b, out_a, out_b = pipeline_runs
    assert code_a == 0
    assert code_b == 0

    stages = (
        "describe", "correlation", "unitroot", "hausman", "gmm", "fmols", "comparison",
    )
    for stage in stages:
        for ext in ("md", "csv", "json"):
            assert (out_a / f"{stage}.{ext}").is_file()

    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        if name == "timings.json":
            continue
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    # starred display cells must agree with the stored full-precision p-values
    doc = json.loads((out_a / "comparison.json").read_text())
    checked = 0
    for row in doc["rows"]:
        label, variable = row[0], row[1]
        stored = doc["values"][label][variable]
        for cell, method in ((row[3], "gmm"), (row[5], "fmols")):
            p = stored[method]["p_value"]
            star = "*" if p < 0.05 else "**"
            assert cell == f"({p:.6f}{star})"
            checked += 1
    assert checked == 10
    print("criterion 5: PASS  pipeline reproducible, all artifacts present, stars consistent")


def test_criterion_6_fixture_magnitudes(pipeline_runs):
    _, _, out_a, _ = pipeline_runs
    gmm = json.loads((out_a / "gmm.json").read_text())["values"]
    fmols = json.loads((out_a / "fmols.json").read_text())["values"]
    for label in EQUATION_REGRESSORS:
        for values in (gmm[label], fmols[label]):
            i = values["columns"].index("ln_prosperity_lag1")
            assert 0.85 < values["coefficients"][i] < 1.0
        assert fmols[label]["r_squared"] > 0.99
    print("criterion 6: PASS  lagged-dependent coefficients in (0.85, 1.0), r-squared > 0.99")
