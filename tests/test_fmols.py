"""Tests for fully modified OLS and long-run covariance estimation."""

import warnings

import numpy as np
import pytest
from scipy import stats

from panelmetrics import effects, fmols
from panelmetrics.data import (
    ModelSpec,
    PanelDataset,
    PanelWarning,
    VariableSeries,
    regression_sample,
)
from panelmetrics.effects import fixed_effects
from panelmetrics.fmols import fmols_panel, long_run_covariances
from panelmetrics.unitroot import neweywest_bandwidth


def build_panel(y, x, start=2000):
    """Two-variable dataset from entity-by-period value matrices."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, width = y.shape
    entities = tuple(f"E{i}" for i in range(n))
    periods = tuple(range(start, start + width))
    ds = PanelDataset(entities=entities, periods=periods)
    ds.add(VariableSeries(name="y", entities=entities, periods=periods, values=y))
    ds.add(VariableSeries(name="x", entities=entities, periods=periods, values=x))
    return ds


LEVEL_SPEC = ModelSpec(label="level", dependent="y", regressors=(("x", 0),))


def bartlett_reference(eta, bandwidth):
    """One block's kernel as a loop over lags, vector blocks by 1-D dot products."""
    T = eta.shape[0]
    omega = lmbda = eta.T @ eta / T
    for j in range(1, bandwidth + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        gamma = eta[j:].T @ eta[: T - j] / T
        omega = omega + w * (gamma + gamma.T)
        lmbda = lmbda + w * gamma
    return omega, lmbda


def fmols_reference(dataset, spec, bandwidth=None):
    """FMOLS entity by entity: each aligned block demeaned by .mean(), the
    moments summed per entity, and one kernel call per entity."""
    sample = regression_sample(dataset, spec)
    k = sample.X.shape[1]
    blocks = []
    for e, entity in enumerate(sample.entities):
        rows = np.flatnonzero(sample.entity_ids == e)
        runs = np.split(rows, np.flatnonzero(np.diff(sample.periods[rows]) != 1) + 1)
        run = max(runs, key=len)  # the earliest of the longest runs
        X = sample.X[run]
        if len(run) >= k + 3 and not (X == X[0]).all(axis=0).any():
            blocks.append((entity, sample.y[run][1:], X[1:], np.diff(X, axis=0)))
    sxx, sxy, demeaned = np.zeros((k, k)), np.zeros(k), []
    for _, y, X, _ in blocks:
        y_dd, X_dd = y - y.mean(), X - X.mean(axis=0)
        demeaned.append((y_dd, X_dd))
        sxx += X_dd.T @ X_dd
        sxy += X_dd.T @ y_dd
    b0 = np.linalg.solve(sxx, sxy)
    sxy_plus, scales, bws = np.zeros(k), [], {}
    for (entity, _, _, v), (y_dd, X_dd) in zip(blocks, demeaned):
        u = y_dd - X_dd @ b0
        m = u.size
        eta = np.column_stack([u, v])
        if bandwidth is None:
            bws[entity] = neweywest_bandwidth(eta.sum(axis=1)) if m >= 4 else 0
        else:
            bws[entity] = min(bandwidth, m - 2)
        if bws[entity] == 0:
            scales.append(u @ u / m)
            sxy_plus += X_dd.T @ y_dd
            continue
        omega, lmbda = long_run_covariances(eta, bws[entity])
        s_vu = np.linalg.solve(omega[1:, 1:], omega[1:, 0])
        scales.append(omega[0, 0] - omega[0, 1:] @ s_vu)
        sxy_plus += X_dd.T @ (y_dd - v @ s_vu) - m * (lmbda[0, 1:] - s_vu @ lmbda[1:, 1:])
    beta = np.linalg.solve(sxx, sxy_plus)
    scale = np.mean(np.clip(scales, 0.0, None))
    resid = np.concatenate([y_dd - X_dd @ beta for y_dd, X_dd in demeaned])
    y_raw = np.concatenate([y for _, y, _, _ in blocks])
    return {
        "coefficients": beta,
        "std_errors": np.sqrt(np.diag(scale * np.linalg.inv(sxx))),
        "long_run_scale": scale,
        "r_squared": 1.0 - resid @ resid / ((y_raw - y_raw.mean()) ** 2).sum(),
        "residuals": resid,
        "bandwidths": bws,
        "lengths": [y.size for _, y, _, _ in blocks],
    }


def gappy_panel(seed=88, n=60, width=30):
    """y, x and z on a ragged panel with holes: many block lengths, some
    blocks too short for an automatic bandwidth, E5's x constant."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal((n, width)), axis=1)
    z = np.cumsum(rng.standard_normal((n, width)), axis=1)
    y = 1.0 + 2.0 * x - 0.5 * z + rng.standard_normal((n, width))
    x[5] = 0.25
    for row, start, end in zip(y, rng.integers(0, 12, n), rng.integers(16, width + 1, n)):
        row[:start] = row[end:] = np.nan
        row[rng.integers(0, width, 2)] = np.nan
    ds = build_panel(y, x)
    ds.add(VariableSeries(name="z", entities=ds.entities, periods=ds.periods, values=z))
    return ds


class TestLongRunCovariances:
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_stacked_blocks_equal_the_reference_bitwise(self, m):
        # m = 0 stands for vector blocks, stacked as (..., T, 1)
        rng = np.random.default_rng(84)
        eta = rng.standard_normal((2, 9, 25) + ((m,) if m else ()))
        bws = rng.integers(0, 8, size=(2, 9))
        omega, lmbda = long_run_covariances(eta if m else eta[..., None], bws)
        assert omega.shape == lmbda.shape == (2, 9, max(m, 1), max(m, 1))
        for block, bw, o, lam in zip(eta.reshape((18,) + eta.shape[2:]), bws.ravel(),
                                     omega.reshape(18, -1), lmbda.reshape(18, -1)):
            o_ref, lam_ref = bartlett_reference(block, int(bw))
            assert o.tobytes() == np.ravel(o_ref).tobytes()
            assert lam.tobytes() == np.ravel(lam_ref).tobytes()

    def test_bandwidth_zero_is_contemporaneous_moment(self):
        rng = np.random.default_rng(80)
        eta = rng.standard_normal((60, 2))
        gamma0 = eta.T @ eta / 60
        omega, lmbda = long_run_covariances(eta, 0)
        # no lag terms enter, so both pieces collapse to Gamma(0) exactly
        assert np.array_equal(omega, gamma0)
        assert np.array_equal(lmbda, gamma0)

    def test_two_sided_identity(self):
        # omega = lambda + lambda' - Gamma(0) ties the kernel sums together
        rng = np.random.default_rng(80)
        eta = rng.standard_normal((60, 2))
        gamma0 = eta.T @ eta / 60
        for bw in (1, 3, 7):
            omega, lmbda = long_run_covariances(eta, bw)
            np.testing.assert_allclose(
                omega, lmbda + lmbda.T - gamma0, rtol=0, atol=1e-14
            )

    def test_omega_symmetric_and_psd(self):
        rng = np.random.default_rng(81)
        eta = rng.standard_normal((120, 3))
        for bw in range(0, 7):
            omega, _ = long_run_covariances(eta, bw)
            assert np.max(np.abs(omega - omega.T)) < 1e-12
            assert np.linalg.eigvalsh(omega).min() >= -1e-10

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(82)
        eta = rng.standard_normal((80, 2))
        omega, lmbda = long_run_covariances(eta, 4)
        omega_f, lmbda_f = long_run_covariances(-eta, 4)
        assert np.array_equal(omega, omega_f)
        assert np.array_equal(lmbda, lmbda_f)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(83)
        eta = rng.standard_normal((80, 2))
        omega, _ = long_run_covariances(eta, 4)
        omega_s, _ = long_run_covariances(3.0 * eta, 4)
        np.testing.assert_allclose(omega_s, 9.0 * omega, rtol=1e-12)

    def test_white_noise_matches_population_variance(self):
        rng = np.random.default_rng(50)
        u = rng.standard_normal(5000)
        omega, _ = long_run_covariances(u, neweywest_bandwidth(u))
        assert abs(omega[0, 0] - 1.0) < 0.10

    def test_ma1_long_run_variance(self):
        # MA(1) with theta = 0.5 has long-run variance (1 + theta)^2 = 2.25
        rng = np.random.default_rng(62)
        e = rng.standard_normal(5001)
        u = e[1:] + 0.5 * e[:-1]
        omega, _ = long_run_covariances(u, neweywest_bandwidth(u))
        assert abs(omega[0, 0] - 2.25) / 2.25 < 0.10

    def test_one_dimensional_input_promoted(self):
        omega, lmbda = long_run_covariances(np.arange(10.0), 1)
        assert omega.shape == (1, 1)
        assert lmbda.shape == (1, 1)

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ValueError, match="nonnegative"):
            long_run_covariances(np.arange(10.0), -1)

    def test_rejects_oversized_bandwidth(self):
        with pytest.raises(ValueError, match="too large"):
            long_run_covariances(np.arange(10.0), 9)


class TestFmolsPanel:
    def test_zero_bandwidth_matches_within_ols(self):
        # with no kernel lags the corrections vanish identically, so the
        # estimator reduces to within OLS on the differencing-aligned rows
        rng = np.random.default_rng(51)
        x = np.cumsum(rng.standard_normal((5, 30)), axis=1)
        y = 1.0 + 2.0 * x + rng.standard_normal((5, 30))
        res = fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth=0)
        aligned = regression_sample(build_panel(y[:, 1:], x[:, 1:]), LEVEL_SPEC)
        fe = fixed_effects(aligned)
        assert abs(res.coef("x") - fe.coef("x")) < 1e-8

    def test_recovers_cointegrating_slope(self):
        rng = np.random.default_rng(52)
        errs = []
        for _ in range(100):
            x = np.cumsum(rng.standard_normal((20, 50)), axis=1)
            y = 2.0 * x + rng.standard_normal((20, 50))
            res = fmols_panel(build_panel(y, x), LEVEL_SPEC)
            errs.append(res.coef("x") - 2.0)
        assert np.mean(np.abs(errs)) <= 0.05

    def test_corrects_endogeneity_bias(self):
        # innovations of x leak into the equation error, which biases the
        # static within estimator; the correction terms should shrink it
        rng = np.random.default_rng(53)
        fm, within = [], []
        for _ in range(200):
            w = rng.standard_normal((20, 50))
            x = np.cumsum(w, axis=1)
            y = 2.0 * x + 0.6 * w + 0.8 * rng.standard_normal((20, 50))
            ds = build_panel(y, x)
            fm.append(fmols_panel(ds, LEVEL_SPEC).coef("x") - 2.0)
            within.append(
                fixed_effects(regression_sample(ds, LEVEL_SPEC)).coef("x") - 2.0
            )
        assert abs(np.mean(fm)) < abs(np.mean(within))

    def test_perfect_fit(self):
        rng = np.random.default_rng(70)
        x = np.cumsum(rng.standard_normal((4, 20)), axis=1)
        y = np.arange(4)[:, None] + 2.0 * x
        res = fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth=0)
        assert res.r_squared == 1.0
        assert abs(res.coef("x") - 2.0) < 1e-10
        assert res.long_run_scale < 1e-20

    def test_orthogonal_regressor_low_r_squared(self):
        rng = np.random.default_rng(75)
        y = rng.standard_normal((12, 40))
        x = np.cumsum(rng.standard_normal((12, 40)), axis=1)
        res = fmols_panel(build_panel(y, x), LEVEL_SPEC)
        assert res.r_squared < 0.05

    def test_coefficient_equivariance(self):
        rng = np.random.default_rng(72)
        x = np.cumsum(rng.standard_normal((4, 40)), axis=1)
        y = 0.5 * x + rng.standard_normal((4, 40))
        res = fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth=3)
        res_s = fmols_panel(build_panel(y, 10.0 * x), LEVEL_SPEC, bandwidth=3)
        assert abs(res.coef("x") - 10.0 * res_s.coef("x")) < 1e-8

    def test_pvalues_are_two_sided_normal(self):
        rng = np.random.default_rng(73)
        x = np.cumsum(rng.standard_normal((3, 12)), axis=1)
        y = 2.0 * x + rng.standard_normal((3, 12))
        res = fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth=2)
        np.testing.assert_allclose(
            res.p_values, 2.0 * stats.norm.sf(np.abs(res.t_stats)), rtol=1e-12
        )

    def test_bandwidth_must_be_a_nonnegative_integer(self):
        # 2.5 was capped with a warning on 20-year blocks, then used as 2
        rng = np.random.default_rng(75)
        x = np.cumsum(rng.standard_normal((6, 21)), axis=1)
        ds = build_panel(2.0 * x + rng.standard_normal((6, 21)), x)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            fmols_panel(ds, LEVEL_SPEC, bandwidth=2.5)
        with pytest.raises(ValueError, match="nonnegative"):
            fmols_panel(ds, LEVEL_SPEC, bandwidth=-1)
        assert fmols_panel(ds, LEVEL_SPEC, bandwidth=np.int64(2)).bandwidths == dict.fromkeys(ds.entities, 2)

    def test_short_entity_dropped_with_warning(self):
        rng = np.random.default_rng(74)
        x = np.cumsum(rng.standard_normal((3, 12)), axis=1)
        y = 2.0 * x + rng.standard_normal((3, 12))
        y[2, 3:] = np.nan  # E2 keeps 3 usable rows, below k + 3 = 4
        with pytest.warns(UserWarning, match=r"^fmols: dropped 1 entity\(ies\) shorter than 4 rows: E2$"):
            res = fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth=1)
        assert res.n_entities == 2
        assert sorted(res.bandwidths) == ["E0", "E1"]

    def test_constant_regressor_entity_dropped_with_warning(self):
        # a regressor constant over a block makes that entity's long-run
        # regressor covariance singular; the entity goes before any fit
        rng = np.random.default_rng(78)
        x = np.cumsum(rng.standard_normal((50, 20)), axis=1)
        y = 2.0 * x + rng.standard_normal((50, 20))
        x[7] = 1.5
        warning = r"dropped 1 entity\(ies\) with a constant regressor: E7$"
        with pytest.warns(PanelWarning, match=warning):
            res = fmols_panel(build_panel(y, x), LEVEL_SPEC)
        assert res.n_entities == 49
        assert "E7" not in res.bandwidths
        with pytest.raises(ValueError, match="varying regressor"):
            with pytest.warns(PanelWarning, match="dropped 2 entity"):
                fmols_panel(build_panel(y[:2], np.ones((2, 20))), LEVEL_SPEC)

    @pytest.mark.parametrize("bandwidth", [None, 0, 3])
    def test_at_most_one_kernel_call_per_model(self, monkeypatch, bandwidth):
        rng = np.random.default_rng(79)
        x = np.cumsum(rng.standard_normal((40, 24)), axis=1)
        y = 2.0 * x + rng.standard_normal((40, 24))
        ends = 12 + np.arange(40) % 6
        for row, end in zip(y, ends):
            row[end:] = np.nan
        calls = []

        def counted(eta, bandwidth, lengths):
            calls.append((eta.shape, np.asarray(bandwidth).tolist(), np.asarray(lengths).tolist()))
            return long_run_covariances(eta, bandwidth, lengths)

        monkeypatch.setattr(fmols, "long_run_covariances", counted)
        res = fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth)
        # differencing consumes each block's first row; blocks zero-padded to the longest
        aligned = dict(zip((f"E{i}" for i in range(40)), (ends - 1).tolist()))
        kernel = [(M, aligned[e]) for e, M in res.bandwidths.items() if M > 0]
        if bandwidth == 0:
            assert calls == []
            return
        if bandwidth is None:
            assert 0 < len(kernel) < 40
            assert len({m for _, m in kernel}) > 1
        assert calls == [((len(kernel), max(aligned.values()), 2), *map(list, zip(*kernel)))]

    @pytest.mark.parametrize("bandwidth", [None, 3])
    @pytest.mark.parametrize("regressors", [(("x", 0),), (("x", 0), ("z", 0))])
    def test_flat_rows_equal_the_per_entity_reference(self, regressors, bandwidth):
        spec = ModelSpec(label="gappy", dependent="y", regressors=regressors)
        ds = gappy_panel()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fmols_panel(ds, spec, bandwidth)
        assert any(str(w.message).endswith("constant regressor: E5") for w in caught)
        ref = fmols_reference(ds, spec, bandwidth)
        assert len(set(ref.pop("lengths"))) > 10
        assert res.bandwidths == ref.pop("bandwidths")
        if bandwidth is None:
            assert 0 < sum(M == 0 for M in res.bandwidths.values()) < res.n_entities
        for name, want in ref.items():
            got, want = np.asarray(getattr(res, name)), np.asarray(want)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_within_step_is_the_fixed_effects_transform(self, monkeypatch):
        assert fmols._within is effects._within
        calls = []

        def counted(sample):
            calls.append(sample.n_obs)
            return effects._within(sample)

        monkeypatch.setattr(fmols, "_within", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PanelWarning)
            res = fmols_panel(gappy_panel(), LEVEL_SPEC)
        assert calls == [res.n_obs]

    def test_capped_fixed_bandwidth_warns(self):
        rng = np.random.default_rng(81)
        x = np.cumsum(rng.standard_normal((4, 12)), axis=1)
        y = 2.0 * x + rng.standard_normal((4, 12))
        y[1:3, 7:] = np.nan  # E1 and E2 keep 7 rows, 6 aligned
        with pytest.warns(PanelWarning, match=r"bandwidth 5 capped at m - 2 for 2 entity\(ies\)"):
            res = fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth=5)
        assert res.bandwidths == {"E0": 5, "E1": 4, "E2": 4, "E3": 5}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth=4)

    def test_noncontiguous_entity_keeps_longest_run(self):
        rng = np.random.default_rng(75)
        x = np.cumsum(rng.standard_normal((3, 12)), axis=1)
        y = 2.0 * x + 0.1
        y[1, 5] = np.nan  # splits E1 into runs of 5 and 6 periods
        with pytest.warns(UserWarning, match="non-contiguous"):
            res = fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth=0)
        # one row per entity is consumed by differencing: 11 + 5 + 11
        assert res.n_obs == 27

    def test_all_entities_too_short_is_error(self):
        rng = np.random.default_rng(76)
        x = np.cumsum(rng.standard_normal((3, 3)), axis=1)
        y = 2.0 * x
        with pytest.raises(ValueError, match="contiguous"):
            with pytest.warns(UserWarning, match="dropped 3 entity"):
                fmols_panel(build_panel(y, x), LEVEL_SPEC)


    def test_requires_a_regressor(self):
        spec = ModelSpec(label="none", dependent="y", regressors=())
        with pytest.raises(ValueError, match="regressor"):
            fmols_panel(build_panel(np.ones((2, 8)), np.ones((2, 8))), spec)

    def test_result_bookkeeping(self):
        rng = np.random.default_rng(77)
        x = np.cumsum(rng.standard_normal((4, 15)), axis=1)
        y = 2.0 * x + rng.standard_normal((4, 15))
        res = fmols_panel(build_panel(y, x), LEVEL_SPEC, bandwidth=2)
        assert res.method == "fmols"
        assert res.columns == ("x",)
        assert res.n_obs == 4 * 14
        assert res.periods_included == 14
        assert res.residuals.shape == (res.n_obs,)
        assert res.long_run_scale > 0.0
        assert set(res.bandwidths) == {"E0", "E1", "E2", "E3"}
        assert all(b == 2 for b in res.bandwidths.values())
