"""Pooled, fixed, and random effects estimators plus the Hausman contrast."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from panelmetrics.data import (
    ModelSpec,
    PanelDataset,
    PanelWarning,
    VariableSeries,
    regression_sample,
)
from panelmetrics.effects import (
    EffectsResult,
    Estimates,
    _wald,
    fixed_effects,
    hausman,
    pooled_ols,
    random_effects,
)
from panelmetrics.fmols import FmolsResult
from panelmetrics.gmm import GmmResult


def build_sample(y, x, extra=None, start=2000, regressors=None):
    y = np.asarray(y, dtype=float)
    n, T = y.shape
    entities = tuple(f"E{i}" for i in range(n))
    periods = tuple(range(start, start + T))
    ds = PanelDataset(entities=entities, periods=periods)
    ds.add(VariableSeries(name="y", entities=entities, periods=periods, values=y))
    ds.add(VariableSeries(name="x", entities=entities, periods=periods,
                          values=np.asarray(x, dtype=float)))
    for name, values in (extra or {}).items():
        ds.add(VariableSeries(name=name, entities=entities, periods=periods,
                              values=np.asarray(values, dtype=float)))
    regs = regressors or (("x", 0),)
    spec = ModelSpec(label="m", dependent="y", regressors=regs)
    return regression_sample(ds, spec)


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


class TestPooledOls:
    def test_exact_fit(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        s = build_sample(x.copy(), x)
        r = pooled_ols(s)
        assert r.coef("x") == pytest.approx(1.0, abs=1e-12)
        assert r.coef("const") == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(r.residuals)) < 1e-12
        assert r.r_squared == pytest.approx(1.0)

    def test_hand_solved_line(self):
        # single entity, x = 1..5: slope 0.6, intercept 2.2
        s = build_sample([[2.0, 4.0, 5.0, 4.0, 5.0]], [[1.0, 2.0, 3.0, 4.0, 5.0]])
        r = pooled_ols(s)
        assert r.coef("x") == pytest.approx(0.6, abs=1e-12)
        assert r.coef("const") == pytest.approx(2.2, abs=1e-12)

    def test_duplicated_regressor_named(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 6))
        s = build_sample(rng.standard_normal((3, 6)), x, extra={"z": x.copy()},
                         regressors=(("x", 0), ("z", 0)))
        with pytest.raises(ValueError, match="collinear.*(x|z)"):
            pooled_ols(s)

    def test_result_invariants(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7))
        y = 1.0 + 0.4 * x + rng.standard_normal((5, 7))
        r = pooled_ols(build_sample(y, x))
        np.testing.assert_allclose(r.cov, r.cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(r.cov).min() > -1e-10
        np.testing.assert_allclose(r.std_errors, np.sqrt(np.diag(r.cov)), atol=1e-14)
        assert 0.0 <= r.r_squared <= 1.0
        assert r.adj_r_squared <= r.r_squared
        assert r.n_obs == 35

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="observations"):
            pooled_ols(build_sample([[1.0, 2.0]], [[1.0, 2.0]]))


class TestFixedEffects:
    def test_matches_dummy_variable_regression(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3))
        a = np.array([[1.0], [-2.0]])
        y = a + 0.7 * x + 0.1 * rng.standard_normal((2, 3))
        s = build_sample(y, x)
        fe = fixed_effects(s)

        dummies = np.zeros((s.n_obs, 2))
        dummies[np.arange(s.n_obs), s.entity_ids] = 1.0
        Xd = np.column_stack([dummies, s.X])
        beta = np.linalg.lstsq(Xd, s.y, rcond=None)[0]
        assert fe.coef("x") == pytest.approx(beta[2], abs=1e-10)
        assert fe.entity_effects["E0"] == pytest.approx(beta[0], abs=1e-10)
        assert fe.entity_effects["E1"] == pytest.approx(beta[1], abs=1e-10)

    def test_entity_constant_regressor_named(self):
        rng = np.random.default_rng(5)
        x = np.repeat([[1.0], [2.0], [3.0]], 5, axis=1)
        y = rng.standard_normal((3, 5))
        with pytest.raises(ValueError, match="collinear.*x"):
            fixed_effects(build_sample(y, x))

    def test_invariant_to_entity_level_shift(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 6))
        y = 0.5 * x + rng.standard_normal((4, 6))
        shift = np.array([[10.0], [-3.0], [0.5], [99.0]])
        a = fixed_effects(build_sample(y, x))
        b = fixed_effects(build_sample(y, x + shift))
        assert a.coef("x") == pytest.approx(b.coef("x"), abs=1e-10)

    def test_unbiased_under_correlated_effects(self):
        # entity effects correlated with x bias pooled OLS but not the
        # within estimator
        rng = np.random.default_rng(77)
        fe_err, po_err = [], []
        for _ in range(200):
            a = rng.standard_normal((30, 1))
            x = 0.5 * a + np.sqrt(0.75) * rng.standard_normal((30, 6))
            y = a + 1.0 * x + rng.standard_normal((30, 6))
            s = build_sample(y, x)
            fe_err.append(fixed_effects(s).coef("x") - 1.0)
            po_err.append(pooled_ols(s).coef("x") - 1.0)
        assert abs(np.mean(fe_err)) < 0.02
        assert abs(np.mean(po_err)) > 0.1

    def test_degrees_of_freedom_accounting(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 5))
        y = 0.3 * x + rng.standard_normal((4, 5))
        fe = fixed_effects(build_sample(y, x))
        assert fe.df_resid == 20 - 4 - 1

    def test_insufficient_rows(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 1))
        with pytest.raises(ValueError, match="n_entities"):
            fixed_effects(build_sample(x * 0.5, x))


class TestRandomEffects:
    def seeded_sample(self, seed=101, n=3, T=4):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 1.0, (n, 1))
        x = rng.standard_normal((n, T))
        y = 2.0 + a + 0.8 * x + 0.3 * rng.standard_normal((n, T))
        return build_sample(y, x)

    def test_theta_one_reproduces_fixed_effects(self):
        s = self.seeded_sample(seed=102, n=5, T=6)
        fe = fixed_effects(s)
        re = random_effects(s, theta_override=1.0)
        assert re.columns == s.columns
        assert re.coef("x") == pytest.approx(fe.coef("x"), abs=1e-10)

    def test_theta_zero_reproduces_pooled(self):
        s = self.seeded_sample(seed=103, n=5, T=6)
        po = pooled_ols(s)
        re = random_effects(s, theta_override=0.0)
        assert re.coef("x") == pytest.approx(po.coef("x"), abs=1e-12)
        assert re.coef("const") == pytest.approx(po.coef("const"), abs=1e-12)

    def test_zero_component_clamps_to_pooled(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 8))
        y = 1.0 + 0.5 * x + rng.standard_normal((6, 8))
        s = build_sample(y, x)
        with pytest.warns(PanelWarning, match="clamped to zero"):
            re = random_effects(s)
        assert re.variance_components["sigma2_u"] == 0.0
        po = pooled_ols(s)
        assert re.coef("x") == pytest.approx(po.coef("x"), abs=1e-6)
        assert re.coef("const") == pytest.approx(po.coef("const"), abs=1e-6)

    def test_matches_explicit_block_gls(self):
        s = self.seeded_sample()
        re = random_effects(s)
        comp = re.variance_components
        s2e, s2u = comp["sigma2_e"], comp["sigma2_u"]
        assert s2u > 0.0

        # hand-coded compound-symmetry inverse per 4-period entity block:
        # (s2e I + s2u J)^-1 = (I - s2u/(s2e + T s2u) J) / s2e
        T = 4
        block_inv = (np.eye(T) - (s2u / (s2e + T * s2u)) * np.ones((T, T))) / s2e
        omega_inv = np.kron(np.eye(3), block_inv)
        X = np.column_stack([np.ones(s.n_obs), s.X])
        beta = np.linalg.solve(X.T @ omega_inv @ X, X.T @ omega_inv @ s.y)
        assert re.coef("const") == pytest.approx(beta[0], abs=1e-8)
        assert re.coef("x") == pytest.approx(beta[1], abs=1e-8)

    def test_theta_formula_per_entity(self):
        rng = np.random.default_rng(104)
        x = rng.standard_normal((4, 7))
        y = rng.normal(0, 1, (4, 1)) + 0.6 * x + 0.4 * rng.standard_normal((4, 7))
        y[0, :2] = np.nan  # unbalance one entity
        s = build_sample(y, x)
        re = random_effects(s)
        comp = re.variance_components
        counts = np.bincount(s.entity_ids)
        for entity, T_i in zip(s.entities, counts):
            expected = 1.0 - np.sqrt(
                comp["sigma2_e"] / (T_i * comp["sigma2_u"] + comp["sigma2_e"])
            )
            assert comp["theta"][entity] == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= comp["theta"][entity] < 1.0

    def test_needs_enough_entities(self):
        rng = np.random.default_rng(105)
        x = rng.standard_normal((2, 8))
        y = 0.5 * x + rng.standard_normal((2, 8))
        with pytest.raises(ValueError, match="variance components"):
            random_effects(build_sample(y, x))


class TestHausman:
    def test_scalar_oracle(self):
        fe = stub_result("fixed", ("x",), [0.6], [[0.0075]])
        re = stub_result("random", ("const", "x"), [1.0, 0.5], [[0.1, 0.0], [0.0, 0.005]])
        h = hausman(fe, re)
        assert h.statistic == pytest.approx(4.0, abs=1e-10)
        assert h.df == 1
        assert h.p_value == pytest.approx(0.0455, abs=1e-3)
        assert h.p_value == pytest.approx(float(stats.chi2.sf(4.0, 1)), abs=1e-12)

    def test_identical_coefficients_give_zero(self):
        fe = stub_result("fixed", ("x",), [0.5], [[0.0075]])
        re = stub_result("random", ("const", "x"), [1.0, 0.5], [[0.1, 0.0], [0.0, 0.005]])
        h = hausman(fe, re)
        assert h.statistic == 0.0
        assert h.p_value == pytest.approx(1.0)

    def test_indefinite_gap_projects_to_rank_subspace(self):
        fe = stub_result("fixed", ("a", "b"), [0.6, 0.4],
                         [[0.02, 0.0], [0.0, 0.001]])
        re = stub_result("random", ("const", "a", "b"), [1.0, 0.5, 0.5],
                         np.diag([0.1, 0.01, 0.002]))
        with pytest.warns(PanelWarning, match="positive definite"):
            h = hausman(fe, re)
        assert h.df == 1
        assert h.statistic == pytest.approx(0.1**2 / 0.01, abs=1e-10)

    def test_fully_negative_gap_collapses(self):
        fe = stub_result("fixed", ("a",), [0.6], [[0.001]])
        re = stub_result("random", ("const", "a"), [1.0, 0.5], np.diag([0.1, 0.01]))
        with pytest.warns(PanelWarning):
            h = hausman(fe, re)
        assert (h.statistic, h.df) == (0.0, 0)
        assert np.isnan(h.p_value)

    def test_mismatched_regressors_rejected(self):
        fe = stub_result("fixed", ("a", "b"), [0.6, 0.4], np.diag([0.01, 0.01]))
        re = stub_result("random", ("const", "a"), [1.0, 0.5], np.diag([0.1, 0.005]))
        with pytest.raises(ValueError, match="differ"):
            hausman(fe, re)

    def test_argument_order_enforced(self):
        fe = stub_result("fixed", ("a",), [0.6], [[0.01]])
        with pytest.raises(ValueError, match="expects"):
            hausman(fe, fe)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, (20, 1))
        x = 0.25 * a + rng.standard_normal((20, 8))
        z = 0.15 * a + rng.standard_normal((20, 8))
        y = a + 0.5 * x - 0.3 * z + rng.standard_normal((20, 8))
        s1 = build_sample(y, x, extra={"z": z}, regressors=(("x", 0), ("z", 0)))
        s2 = build_sample(y, x, extra={"z": z}, regressors=(("z", 0), ("x", 0)))
        h1 = hausman(fixed_effects(s1), random_effects(s1))
        h2 = hausman(fixed_effects(s2), random_effects(s2))
        assert h1.df == h2.df == 2
        assert h1.statistic > 0.0
        assert h1.statistic == pytest.approx(h2.statistic, abs=1e-8)

    def test_nonnegative_over_random_panels(self):
        rng = np.random.default_rng(10)
        import warnings as _w
        for _ in range(10):
            a = rng.normal(0.0, 0.5, (10, 1))
            x = 0.3 * a + rng.standard_normal((10, 5))
            y = a + 0.6 * x + rng.standard_normal((10, 5))
            s = build_sample(y, x)
            with _w.catch_warnings():
                _w.simplefilter("ignore")
                h = hausman(fixed_effects(s), random_effects(s))
            assert h.statistic >= 0.0
            assert h.df >= 0


class TestWald:
    # variances: ordinary twice, one giving t = 30 (normal p about 1e-197), zero, negative
    beta = np.array([1.5, -0.2, 30.0, 3.0, 0.7])
    cov = np.diag([0.25, 0.01, 1.0, 0.0, -0.3]) + 1e-3 * (1.0 - np.eye(5))

    @pytest.mark.parametrize("df", [None, 1, 7, 45, 100000])
    def test_matches_scipy_t_and_normal(self, df):
        se, t, p = _wald(self.beta, self.cov, df)
        ok = slice(0, 3)
        assert np.array_equal(se[3:], [0.0, 0.0])
        assert np.isnan(t[3:]).all() and np.isnan(p[3:]).all()
        expected_se = np.sqrt(np.diag(self.cov)[ok])
        np.testing.assert_allclose(se[ok], expected_se, rtol=1e-12)
        np.testing.assert_allclose(t[ok], self.beta[ok] / expected_se, rtol=1e-12)
        tail = stats.norm.sf if df is None else stats.t(df).sf
        np.testing.assert_allclose(p[ok], 2.0 * tail(np.abs(t[ok])), rtol=1e-12)


class TestEstimatesRecord:
    SHARED = {"method", "columns", "coefficients", "std_errors", "t_stats", "p_values",
              "cov", "n_obs", "n_entities", "periods_included"}
    FIELDS = {  # each result's fields: the shared record's and its own
        EffectsResult: SHARED | {"df_resid", "sigma2", "r_squared", "adj_r_squared",
                                 "residuals", "demeaned_dependent", "entity_effects",
                                 "variance_components"},
        FmolsResult: SHARED | {"r_squared", "adj_r_squared", "long_run_scale", "bandwidths",
                               "residuals", "demeaned_dependent"},
        GmmResult: SHARED | {"instrument_count", "j_stat", "j_df", "j_p",
                             "one_step_coefficients", "weighting"},
    }

    def test_results_extend_one_record_and_keep_their_fields(self):
        assert {f.name for f in dataclasses.fields(Estimates)} == self.SHARED
        for cls, names in self.FIELDS.items():
            assert issubclass(cls, Estimates)
            assert {f.name for f in dataclasses.fields(cls)} == names
            assert "coef" not in vars(cls)
