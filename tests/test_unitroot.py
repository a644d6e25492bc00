"""Unit-root battery: ADF, Phillips-Perron, LLC, IPS, Fisher combination."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from panelmetrics import _dfconstants as dfc
from panelmetrics import unitroot
from panelmetrics._dfconstants import mackinnon_p
from panelmetrics._special import ndtr
from panelmetrics.data import PanelDataset, PanelWarning, VariableSeries, first_difference, natural_log, read_panel_csv
from panelmetrics.fixture import RAW_VARIABLES, fixture_path
from panelmetrics.unitroot import (
    BATTERY_TESTS,
    Runs,
    _df_regression,
    _shortest_run,
    adf_test,
    default_lags,
    fisher_combine,
    ips_test,
    llc_test,
    long_run_covariances,
    neweywest_bandwidth,
    pp_test,
    run_battery,
)


def make_series(rows, name="v", start=1950):
    rows = np.asarray(rows, dtype=float)
    entities = tuple(f"E{i}" for i in range(rows.shape[0]))
    periods = tuple(range(start, start + rows.shape[1]))
    return VariableSeries(name=name, entities=entities, periods=periods, values=rows)


def panel(test, series, det="c", **options):
    """A panel test on one series laid out alone: its result, or its refusal raised."""
    (out,) = test(Runs((series,), det), **options)
    if isinstance(out, ValueError):
        raise out
    return out


def make_dataset(rows, name="v", start=1950):
    series = make_series(rows, name=name, start=start)
    ds = PanelDataset(entities=series.entities, periods=series.periods)
    ds.add(series)
    return ds


def ar_panel(rng, n, T, rho):
    z = np.zeros((n, T))
    eps = rng.standard_normal((n, T))
    for t in range(1, T):
        z[:, t] = rho * z[:, t - 1] + eps[:, t]
    return z


class TestDefaultLags:
    @pytest.mark.parametrize(
        "T, expected", [(9, 2), (25, 2), (50, 3), (100, 4), (200, 4)]
    )
    def test_schwert_rule(self, T, expected):
        assert default_lags(T) == expected

    def test_needs_positive_length(self):
        with pytest.raises(ValueError):
            default_lags(0)


class TestAdf:
    def test_hand_normal_equations(self):
        # dy = rho * y_lag + c over the 5 usable rows, solved by scalar
        # normal equations; tau works out to exactly -1.8
        y = np.array([1.0, 2.0, 1.5, 2.5, 2.0, 3.0])
        ylag, dy = y[:-1], np.diff(y)
        n = 5
        sx, sxx = ylag.sum(), (ylag**2).sum()
        sy, sxy = dy.sum(), (ylag * dy).sum()
        det = n * sxx - sx * sx
        rho = (n * sxy - sx * sy) / det
        resid = dy - rho * ylag - (sy - rho * sx) / n
        se = math.sqrt((resid @ resid) / (n - 2) * n / det)
        tau = rho / se
        assert tau == pytest.approx(-1.8, abs=1e-12)

        r = adf_test(y, det="c", lags=0)
        assert r.statistic == pytest.approx(tau, abs=1e-6)
        assert r.n_obs == 5
        assert 0.0 <= r.p_value <= 1.0

    def test_white_noise_detected_stationary(self):
        rng = np.random.default_rng(42)
        r = adf_test(rng.standard_normal(200), det="c", lags=0)
        assert r.p_value < 0.05

    def test_random_walk_not_rejected(self):
        rng = np.random.default_rng(5)
        hits = sum(
            adf_test(np.cumsum(rng.standard_normal(200)), det="c", lags=0).p_value > 0.05
            for _ in range(100)
        )
        assert hits >= 90

    def test_too_short_for_lags(self):
        # T=5 with det c supports lag 0 only
        with pytest.raises(ValueError, match=r"^adf_test: T=5 cannot support 1 lags with det='c' \(maximum 0\)$"):
            adf_test([1.0, 2.0, 1.0, 3.0, 2.5], det="c", lags=1)

    @pytest.mark.parametrize("det", ["n", "c", "ct"])
    def test_shortest_run_is_first_fittable_length(self, det):
        # the panel tests' length floor is the shortest series ADF can fit
        T = _shortest_run(det)
        y = np.arange(T) + np.sin(np.arange(T))
        assert adf_test(y, det=det).lags == 0
        # one shorter supports no lag: refused the same way before lags or bandwidth is read
        too_short = rf"series too short \(T={T - 1}\) for det='{det}'$"
        for lags in (None, 0, 10):
            with pytest.raises(ValueError, match=f"^adf_test: {too_short}"):
                adf_test(y[:-1], det=det, lags=lags)
        with pytest.raises(ValueError, match=f"^pp_test: {too_short}"):
            pp_test(y[:-1], det=det, bandwidth=0)

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            adf_test([1.0, np.nan, 2.0, 3.0, 2.0, 4.0])

    def test_bad_arguments(self):
        y = np.arange(20.0) + np.sin(np.arange(20.0))
        with pytest.raises(ValueError, match="deterministic"):
            adf_test(y, det="cc")
        with pytest.raises(ValueError, match="nonnegative"):
            adf_test(y, lags=-1)

    def test_non_integer_lags_refused(self):
        # not truncated: 1.9 used to fit 1 lag
        y = np.arange(20.0) + np.sin(np.arange(20.0))
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            adf_test(y, lags=1.9)
        assert adf_test(y, lags=np.int64(1)).lags == 1

    def test_rows_follow_lag_count(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(30)
        assert adf_test(y, lags=2).n_obs == 27


class TestMacKinnonSurface:
    @pytest.mark.parametrize("det, cv", [("c", -2.86), ("ct", -3.41), ("n", -1.95)])
    def test_classic_five_percent_points(self, det, cv):
        # textbook asymptotic 5% critical values land near p = 0.05
        assert mackinnon_p(cv, det) == pytest.approx(0.05, abs=0.01)

    def test_clamps(self):
        assert mackinnon_p(5.0, "c") == 1.0
        assert mackinnon_p(-25.0, "c") == 0.0

    @pytest.mark.parametrize("det", ["n", "c", "ct"])
    def test_monotone_in_statistic(self, det):
        grid = np.linspace(-19.0, 0.0, 300)
        p = np.array([mackinnon_p(float(s), det) for s in grid])
        assert np.all(np.diff(p) >= 0.0)
        assert np.all((p >= 0.0) & (p <= 1.0))


    @pytest.mark.parametrize("det", ["n", "c", "ct"])
    def test_vector_equals_scalar_calls_bitwise(self, det):
        def branchy(stat):
            # the scalar rule, one branch per region
            if stat > dfc.TAU_MAX[det] or stat == np.inf:
                return 1.0
            if stat < dfc.TAU_MIN[det]:
                return 0.0
            coef = dfc.TAU_SMALLP[det] if stat <= dfc.TAU_STAR[det] else dfc.TAU_LARGEP[det]
            return float(ndtr(np.polyval(coef[::-1], stat)))

        edges = np.array([dfc.TAU_MIN[det], dfc.TAU_STAR[det], dfc.TAU_MAX[det]])
        taus = np.concatenate([
            np.linspace(-25.0, 5.0, 601), edges,
            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [np.nan],
        ])
        scalar = [mackinnon_p(float(t), det) for t in taus]
        assert all(type(p) is float for p in scalar)
        vector = mackinnon_p(taus, det)
        assert vector.shape == taus.shape
        assert vector.tobytes() == np.array(scalar).tobytes()
        assert np.isnan(scalar[-1])
        with np.errstate(over="ignore"):  # the branchy rule just below +inf for "n"
            expected = [branchy(t) for t in taus[:-1]]
        assert np.array(scalar[:-1]).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("det", ["n", "c", "ct"])
    def test_infinite_tau_maps_to_the_tails(self, det):
        # a perfect-fit entity can give an infinite tau; TAU_MAX["n"] is +inf itself
        assert mackinnon_p(np.inf, det) == 1.0
        assert mackinnon_p(-np.inf, det) == 0.0
        assert mackinnon_p(np.array([np.inf, -np.inf]), det).tolist() == [1.0, 0.0]


class TestPhillipsPerron:
    def test_bandwidth_zero_equals_adf(self):
        rng = np.random.default_rng(7)
        y = np.cumsum(rng.standard_normal(80))
        a = adf_test(y, det="c", lags=0)
        p = pp_test(y, det="c", bandwidth=0)
        assert p.statistic == pytest.approx(a.statistic, abs=1e-12)
        assert p.p_value == pytest.approx(a.p_value, abs=1e-12)

    def test_correction_vanishes_without_serial_correlation(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(300)
        tau = adf_test(y, det="c", lags=0).statistic
        assert abs(pp_test(y, det="c").statistic - tau) <= 0.15
        assert abs(pp_test(y, det="c", bandwidth=4).statistic - tau) <= 0.15

    def test_random_walk_size(self):
        rng = np.random.default_rng(9)
        hits = sum(
            pp_test(np.cumsum(rng.standard_normal(200)), det="c").p_value > 0.05
            for _ in range(200)
        )
        assert hits >= 180

    def test_bandwidth_validation(self):
        y = np.arange(12.0) + np.cos(np.arange(12.0))
        with pytest.raises(ValueError, match="nonnegative"):
            pp_test(y, bandwidth=-1)
        with pytest.raises(ValueError, match="too large"):
            pp_test(y, bandwidth=50)

    def test_non_integer_bandwidth_refused(self):
        # not truncated: 2.9 used to give bandwidth 2
        y = np.arange(30.0) + np.cos(np.arange(30.0))
        series = make_series(ar_panel(np.random.default_rng(8), 3, 30, 0.5))
        for call in (lambda bw: pp_test(y, bandwidth=bw), lambda bw: panel(unitroot.fisher_pp, series, bandwidth=bw)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call(2.9)
            assert call(np.int64(2)) == call(2)

    def test_three_residuals_get_bandwidth_zero(self):
        # the automatic rule needs 4 residuals; the shortest "n" run leaves
        # 3, which get bandwidth 0, where Z is exactly the Dickey-Fuller tau
        y = np.cos(np.arange(4.0)) + 0.3 * np.arange(4.0)
        r = pp_test(y, det="n")
        assert (r.n_obs, r.bandwidth) == (3, 0)
        assert r.statistic == pytest.approx(adf_test(y, det="n", lags=0).statistic, abs=1e-12)

    def test_fisher_pp_keeps_a_shortest_run_entity(self):
        rows = ar_panel(np.random.default_rng(21), 3, 10, 0.5)
        rows[2, 4:] = np.nan  # E2 observed for 4 years, the "n" shortest run
        r = panel(unitroot.fisher_pp, make_series(rows), "n")
        assert r.n_entities == 3
        assert r.per_entity[2][3] == 0

    def test_perfect_fit_refused_naming_entity(self):
        # an exact linear trend: its lag-0 fit leaves rounding noise, s ~ 3e-16
        # against RMS differences of 2, which gave E2 a Z of -3.1e7 for det ct
        rows = np.cumsum(np.random.default_rng(25).standard_normal((6, 40)), axis=1)
        rows[2] = 3.0 + 2.0 * np.arange(40)
        for det in ("c", "ct"):
            with pytest.raises(ValueError, match=r"pp_test: perfect fit for E2 \(regression standard error"):
                panel(unitroot.fisher_pp, make_series(rows), det)
            with pytest.raises(ValueError, match="perfect fit for the series"):
                pp_test(rows[2], det=det)
        # the tolerance is relative: a tiny but genuine scale is kept
        rest = np.delete(rows, 2, axis=0)
        small, unit = panel(unitroot.fisher_pp, make_series(1e-100 * rest)), panel(unitroot.fisher_pp, make_series(rest))
        assert small.statistic == pytest.approx(unit.statistic, rel=1e-9)


class TestNeweyWestBandwidth:
    def test_matches_documented_formula(self):
        rng = np.random.default_rng(15)
        u = rng.standard_normal(120)
        u = u + np.concatenate(([0.0], 0.6 * u[:-1]))
        T = u.shape[0]
        n = min(default_lags(T), T - 2)
        sig = [float(u @ u) / T] + [float(u[j:] @ u[:-j]) / T for j in range(1, n + 1)]
        s0 = sig[0] + 2.0 * sum(sig[1:])
        s1 = 2.0 * sum(j * sig[j] for j in range(1, n + 1))
        expected = int(np.clip(np.floor(1.1447 * ((s1 / s0) ** 2 * T) ** (1 / 3)), 0, T - 2))
        assert neweywest_bandwidth(u) == expected

    def test_persistent_series_gets_wider_window(self):
        rng = np.random.default_rng(16)
        iid = rng.standard_normal(500)
        ar = ar_panel(np.random.default_rng(17), 1, 500, 0.9)[0]
        assert neweywest_bandwidth(iid) <= 5
        assert neweywest_bandwidth(ar) > neweywest_bandwidth(iid)

    def test_short_vector_rejected(self):
        # below four rows the rule gives the no-correction bandwidth; only an empty series is refused
        for T in (1, 2, 3):
            assert neweywest_bandwidth(np.cos(np.arange(T))) == 0
        with pytest.raises(ValueError, match="nonempty"):
            neweywest_bandwidth([])

    def test_stacked_series_equal_single_calls(self):
        rng = np.random.default_rng(18)
        u = np.vstack([ar_panel(rng, 10, 40, rho) for rho in (-0.3, 0.0, 0.5, 0.9)])
        single = [neweywest_bandwidth(row) for row in u]
        assert all(type(m) is int for m in single) and len(set(single)) > 3
        stacked = neweywest_bandwidth(u.reshape(2, 20, 40))
        assert stacked.shape == (2, 20)
        assert stacked.ravel().tolist() == single


def long_run_variance(u, bandwidth):
    """Univariate long-run variance: the m = 1 case of the shared kernel."""
    omega, _ = long_run_covariances(u, bandwidth)
    return float(omega[0, 0])


class TestBartlettVariance:
    def test_bandwidth_zero_is_mean_square(self):
        u = np.array([1.0, -2.0, 3.0, -1.0, 0.5])
        assert long_run_variance(u, 0) == pytest.approx(float(u @ u) / 5, abs=1e-15)

    def test_hand_sum_small_vector(self):
        u = np.array([1.0, 2.0, -1.0, 3.0])
        g0 = (1 + 4 + 1 + 9) / 4
        g1 = (1 * 2 - 2 * 1 - 1 * 3) / 4
        g2 = (1 * -1 + 2 * 3) / 4
        expected = g0 + 2 * (2 / 3) * g1 + 2 * (1 / 3) * g2
        assert long_run_variance(u, 2) == pytest.approx(expected, abs=1e-12)

    def test_ma1_long_run_variance(self):
        # u_t = e_t + 0.5 e_{t-1} has long-run variance (1 + 0.5)^2 = 2.25
        rng = np.random.default_rng(8)
        e = rng.standard_normal(200001)
        u = e[1:] + 0.5 * e[:-1]
        assert long_run_variance(u, 30) == pytest.approx(2.25, abs=0.15)


class TestFisherCombine:
    def test_pinned_pair(self):
        stat, df, p = fisher_combine([0.05, 0.05])
        assert stat == pytest.approx(11.98293, abs=1e-3)
        assert df == 4
        assert p == pytest.approx(0.01748, abs=1e-4)
        # chi-square(4) survival in closed form as the second route
        assert p == pytest.approx(math.exp(-stat / 2) * (1 + stat / 2), rel=1e-9)

    def test_all_ones_vanish(self):
        stat, df, p = fisher_combine([1.0, 1.0, 1.0])
        assert stat == 0.0
        assert df == 6
        assert p == pytest.approx(1.0)

    def test_zero_p_clamped_with_warning(self):
        with pytest.warns(PanelWarning, match="clamped"):
            stat, _, p = fisher_combine([0.0, 0.5])
        assert np.isfinite(stat)
        assert stat == pytest.approx(-2 * (math.log(1e-16) + math.log(0.5)), rel=1e-9)

    def test_floor_applies_below_1e16(self):
        lo, _, _ = fisher_combine([1e-20])
        ref, _, _ = fisher_combine([1e-16])
        assert lo == pytest.approx(ref, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fisher_combine([])
        with pytest.raises(ValueError):
            fisher_combine([0.5, 1.5])
        with pytest.raises(ValueError):
            fisher_combine([0.5, np.nan])

    def test_permutation_invariant_and_monotone(self):
        a = fisher_combine([0.1, 0.4, 0.7])[0]
        assert fisher_combine([0.7, 0.1, 0.4])[0] == pytest.approx(a, abs=1e-12)
        assert fisher_combine([0.05, 0.4, 0.7])[0] > a


class TestIps:
    def test_identical_entities_share_tau(self):
        rng = np.random.default_rng(3)
        y = np.cumsum(np.abs(rng.standard_normal(30)))
        r = panel(ips_test, make_series([y, y.copy()]))
        taus = {round(row[1], 12) for row in r.per_entity}
        assert len(taus) == 1
        direct = adf_test(y, det="c", lags=r.per_entity[0][3])
        assert r.per_entity[0][1] == pytest.approx(direct.statistic, abs=1e-12)

    def test_per_entity_rows_match_direct_adf(self):
        rng = np.random.default_rng(19)
        rows = [ar_panel(rng, 1, 40, rho)[0] for rho in (0.2, 0.5, 0.8)]
        r = panel(ips_test, make_series(rows))
        for i, (entity, tau, p, lags) in enumerate(r.per_entity):
            direct = adf_test(rows[i], det="c", lags=lags)
            assert tau == pytest.approx(direct.statistic, abs=1e-10)
            assert p == pytest.approx(direct.p_value, abs=1e-10)

    def test_stationary_pair_has_negative_statistic(self):
        rng = np.random.default_rng(13)
        r = panel(ips_test, make_series(ar_panel(rng, 2, 50, 0.2)))
        assert r.statistic < 0.0
        assert r.p_value == pytest.approx(
            float(0.5 * (1 + math.erf(r.statistic / math.sqrt(2)))), abs=1e-12
        )

    def test_mixed_panel_power(self):
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(100):
            rows = [np.cumsum(rng.standard_normal(50)) for _ in range(10)]
            rows.extend(ar_panel(rng, 10, 50, 0.3))
            if panel(ips_test, make_series(rows)).p_value < 0.05:
                hits += 1
        assert hits >= 80

    def test_unsupported_det_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="moment table"):
            panel(ips_test, make_series(ar_panel(rng, 3, 30, 0.3)), "n")

    def test_each_entity_fitted_once_at_table_lag(self, monkeypatch):
        # T=16 allows 5 lags, but the table's lower grid length 15 holds 4
        rng = np.random.default_rng(17)
        calls = []
        kernel = unitroot._df_regression

        def recording(y, det, lags, lengths=None):
            calls.append((y.shape, lags, np.asarray(lengths).tolist()))
            return kernel(y, det, lags, lengths)

        monkeypatch.setattr(unitroot, "_df_regression", recording)
        r = panel(ips_test, make_series(ar_panel(rng, 3, 16, 0.5)), lags=5)
        assert calls == [((3, 16), 4, [16, 16, 16])]
        assert [row[3] for row in r.per_entity] == [4, 4, 4]

    def test_short_entities_dropped_then_error(self):
        rng = np.random.default_rng(18)
        with pytest.warns(PanelWarning, match="dropped"):
            with pytest.raises(ValueError, match="fewer than two"):
                panel(ips_test, make_series(rng.standard_normal((3, 6))))


def longest_run(values):
    """The earliest longest stretch of finite values."""
    runs, current = [], []
    for v in values:
        if np.isfinite(v):
            current.append(v)
        else:
            runs.append(current)
            current = []
    runs.append(current)
    return np.array(max(runs, key=len))


def gappy_series(seed, n=40, T=30):
    """Random walks whose longest runs span 8..30 years; where room is left,
    the last year is observed again alone, past a gap."""
    rng = np.random.default_rng(seed)
    rows = np.cumsum(rng.standard_normal((n, T)), axis=1)
    for row in rows:
        length = rng.integers(8, T + 1)
        start = rng.integers(0, T - length + 1)
        last = row[-1]
        row[:start] = np.nan
        row[start + length :] = np.nan
        if start + length + 1 < T:
            row[-1] = last
    return make_series(rows)


class TestStackedKernel:
    """Panel tests fit runs in stacked groups; each row equals a batch of one."""

    @pytest.mark.parametrize("det", ["c", "ct"])
    @pytest.mark.parametrize("lags", [None, 2])
    def test_adf_rows_equal_single_series_fits(self, det, lags):
        series = gappy_series(31)
        runs = [longest_run(row) for row in series.values]
        assert len({len(r) for r in runs}) > 10
        for test in (unitroot.fisher_adf, ips_test):
            r = panel(test, series, det, lags=lags)
            assert [row[0] for row in r.per_entity] == list(series.entities)
            for (entity, tau, p, p_lags), run in zip(r.per_entity, runs):
                direct = adf_test(run, det=det, lags=p_lags)
                assert tau == pytest.approx(direct.statistic, rel=0, abs=1e-12)
                assert p == pytest.approx(direct.p_value, rel=0, abs=1e-12)
                if test is unitroot.fisher_adf and lags is None:
                    assert p_lags == adf_test(run, det=det).lags

    @pytest.mark.parametrize("det", ["c", "ct"])
    @pytest.mark.parametrize("bandwidth", [None, 3])
    def test_pp_rows_equal_single_series_fits(self, det, bandwidth):
        series = gappy_series(32)
        runs = [longest_run(row) for row in series.values]
        r = panel(unitroot.fisher_pp, series, det, bandwidth=bandwidth)
        assert [row[0] for row in r.per_entity] == list(series.entities)
        for (entity, z, p, bw), run in zip(r.per_entity, runs):
            direct = pp_test(run, det=det, bandwidth=bandwidth)
            assert z == pytest.approx(direct.statistic, rel=0, abs=1e-12)
            assert p == pytest.approx(direct.p_value, rel=0, abs=1e-12)
            assert bw == direct.bandwidth

    @pytest.mark.parametrize("bandwidth", [None, 3])
    def test_fisher_pp_one_kernel_call_per_series(self, monkeypatch, bandwidth):
        series = gappy_series(32)
        rows = [len(longest_run(row)) - 1 for row in series.values]
        calls = []

        def counted(name, fn):
            def wrapper(eta, *args):
                calls.append((name, eta.shape, np.asarray(args[-1]).tolist()))
                return fn(eta, *args)

            monkeypatch.setattr(unitroot, name, wrapper)

        counted("long_run_covariances", long_run_covariances)
        counted("neweywest_bandwidth", neweywest_bandwidth)
        panel(unitroot.fisher_pp, series, bandwidth=bandwidth)
        assert len(set(rows)) > 10
        # every run's residuals, zero-padded to the longest: (runs, max rows[, 1])
        padded = (len(rows), max(rows))
        want = [("long_run_covariances", padded + (1,), rows)]
        if bandwidth is None:
            want.insert(0, ("neweywest_bandwidth", padded, rows))
        assert calls == want

    def test_fixed_bandwidth_checked_before_any_fit(self, monkeypatch):
        rows = ar_panel(np.random.default_rng(33), 4, 20, 0.5)
        rows[1, 7:] = np.nan  # 6 rows: the first entity too short for bandwidth 6
        rows[3, 6:] = np.nan  # 5 rows
        monkeypatch.setattr(unitroot, "_df_regression", None)
        with pytest.raises(ValueError, match="^pp_test: bandwidth 6 too large for 6 rows$"):
            panel(unitroot.fisher_pp, make_series(rows), bandwidth=6)


def padded_blocks(rng, n, m, lo=5, hi=60):
    """n blocks of m AR(1) columns with lengths lo..hi, zero-padded at the end
    to the longest; and the lengths."""
    lengths = rng.integers(lo, hi + 1, n)
    eta = np.zeros((n, lengths.max(), m))
    for block, T in zip(eta, lengths):
        block[:T] = ar_panel(rng, m, T, rng.uniform(-0.5, 0.9)).T
    return eta, lengths


def random_run_series(rng, n=30, T=60, lo=5):
    """Random walks observed on one run of lo..T years each; and the runs."""
    rows = np.full((n, T), np.nan)
    runs = []
    for row in rows:
        length = rng.integers(lo, T + 1)
        start = rng.integers(0, T - length + 1)
        row[start : start + length] = np.cumsum(rng.standard_normal(length))
        runs.append(row[start : start + length])
    return make_series(rows), runs


class TestPaddedKernel:
    """One kernel call over zero-padded blocks equals each block's own call."""

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_padded_blocks_equal_batches_of_one(self, seed, m):
        eta, lengths = padded_blocks(np.random.default_rng(90 + seed), 60, m)
        auto = neweywest_bandwidth(eta.sum(axis=-1), lengths)
        blocks = [block[:T] for block, T in zip(eta, lengths)]
        assert auto.tolist() == [neweywest_bandwidth(b.sum(axis=-1)) for b in blocks]
        assert len(set(auto.tolist())) > 3
        for M in (auto, np.minimum(3, lengths - 2)):
            omega, lmbda = long_run_covariances(eta, M, lengths)
            for i, block in enumerate(blocks):
                want = long_run_covariances(block, M[i])
                np.testing.assert_allclose(omega[i], want[0], rtol=0, atol=1e-12)
                np.testing.assert_allclose(lmbda[i], want[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 3])
    def test_full_lengths_are_the_unpadded_call(self, m):
        eta, _ = padded_blocks(np.random.default_rng(95), 50, m, lo=40, hi=40)
        full = np.full(50, 40)
        u = eta.sum(axis=-1)
        M = neweywest_bandwidth(u)
        assert neweywest_bandwidth(u, full).tobytes() == M.tobytes()
        for got, want in zip(long_run_covariances(eta, M, full), long_run_covariances(eta, M)):
            assert got.tobytes() == want.tobytes()

    def test_lengths_set_each_blocks_bandwidth_cap(self):
        eta, lengths = padded_blocks(np.random.default_rng(96), 5, 1, lo=6, hi=9)
        shortest = lengths.min()
        assert shortest < lengths.max()
        long_run_covariances(eta, lengths - 2, lengths)
        with pytest.raises(ValueError, match=f"^bandwidth {shortest - 1} too large for {shortest} rows$"):
            long_run_covariances(eta, np.where(lengths == shortest, shortest - 1, 0), lengths)
        # series of one to three rows get bandwidth 0 beside their longer neighbours; an empty one is refused
        short = np.array([4, 1, 3, 2, 7])
        u = np.where(np.arange(eta.shape[1]) < short[:, None], eta[..., 0], 0.0)
        auto = neweywest_bandwidth(u, short).tolist()
        assert auto == [neweywest_bandwidth(row[:T]) for row, T in zip(u, short)]
        assert auto[1:4] == [0, 0, 0]
        assert neweywest_bandwidth(u, np.array([1, 2, 2, 1, 2])).tolist() == [0] * 5  # no pilot lag at all
        with pytest.raises(ValueError, match="nonempty"):
            neweywest_bandwidth(u, np.array([4, 5, 0, 6, 7]))

    @pytest.mark.parametrize("bandwidth", [None, 2])
    @pytest.mark.parametrize("det", ["c", "ct"])
    @pytest.mark.parametrize("seed", range(3))
    def test_pp_on_random_gappy_panels(self, seed, det, bandwidth):
        series, runs = random_run_series(np.random.default_rng(97 + seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PanelWarning)  # det ct drops runs of 5
            r = panel(unitroot.fisher_pp, series, det, bandwidth=bandwidth)
        kept = dict(zip(series.entities, runs))
        assert len({len(kept[e]) for e, *_ in r.per_entity}) > 10
        for entity, z, p, bw in r.per_entity:
            direct = pp_test(kept[entity], det=det, bandwidth=bandwidth)
            assert bw == direct.bandwidth
            assert z == pytest.approx(direct.statistic, rel=0, abs=1e-12)


class TestPaddedRegression:
    """One Dickey-Fuller solve over zero-padded runs equals each run's own fit."""

    @pytest.mark.parametrize("lags", [0, 1, 2, 3])
    @pytest.mark.parametrize("det", ["n", "c", "ct"])
    def test_padded_runs_equal_fits_of_one(self, det, lags):
        rng = np.random.default_rng(70 + 4 * lags + len(det))
        lengths = rng.integers(2 * lags + len(det) + 4, 41, 50)
        lengths[0] = 40  # one run fills the padded width
        Y = np.zeros((50, 40))
        for row, T in zip(Y, lengths):
            row[:T] = np.cumsum(rng.standard_normal(T))
        tau, se, s, resid, rows = _df_regression(Y, det, lags, lengths)
        assert rows.tolist() == (lengths - 1 - lags).tolist()
        assert resid.shape == (50, 39 - lags)
        for i, T in enumerate(lengths.tolist()):
            one = _df_regression(Y[i, :T], det, lags)
            for got, want in zip((tau[i], se[i], s[i]), one[:3]):
                assert got == pytest.approx(want, rel=1e-12, abs=0)
            np.testing.assert_allclose(resid[i, : one[4]], one[3], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(resid[i, one[4]:], 0.0)

    @pytest.mark.parametrize("det", ["n", "c", "ct"])
    def test_se_rho_is_the_inverse_entry(self, det):
        # one factorization of X'X against [X'dy | e0] gives se_rho = sqrt(s^2 inv(X'X)[0, 0])
        rng = np.random.default_rng(78 + len(det))
        lengths = rng.integers(12, 41, 30)
        lengths[0] = 40
        Y = np.zeros((30, 40))
        for row, T in zip(Y, lengths):
            row[:T] = np.cumsum(rng.standard_normal(T))
        _, se, s, _, _ = _df_regression(Y, det, 2, lengths)
        for i, T in enumerate(lengths.tolist()):
            X = df_design(Y[i, :T], det, 2)
            assert se[i] == pytest.approx(np.sqrt(s[i] ** 2 * np.linalg.inv(X.T @ X)[0, 0]), rel=1e-12, abs=0)

    @pytest.mark.parametrize("det", ["n", "c", "ct"])
    def test_full_lengths_are_the_unpadded_call(self, det):
        Y = np.cumsum(np.random.default_rng(75).standard_normal((30, 25)), axis=1)
        padded = _df_regression(Y, det, 2, np.full(30, 25))
        for got, want in zip(padded, _df_regression(Y, det, 2)):
            assert np.asarray(got).tobytes() == np.full(np.shape(got), want).tobytes()


def longest_run_panel(seed, n=40, T=60):
    """Random walks with one run of 30..T years each, plus scattered cells
    past a blank year on either side; and a copy with only the runs kept."""
    rng = np.random.default_rng(seed)
    rows = np.cumsum(rng.standard_normal((n, T)), axis=1)
    scattered = np.where(rng.random((n, T)) < 0.6, rows, np.nan)
    runs_only = np.full((n, T), np.nan)
    for i in range(n):
        length = rng.integers(30, T + 1)
        start = rng.integers(0, T - length + 1)
        runs_only[i, start : start + length] = rows[i, start : start + length]
        scattered[i, max(start - 1, 0) : start + length + 1] = np.nan
    return make_series(np.where(np.isfinite(runs_only), runs_only, scattered)), make_series(runs_only)


class TestPanelRuns:
    def test_drop_warning_names_count_then_first_eight(self):
        rows = np.cumsum(np.random.default_rng(34).standard_normal((12, 20)), axis=1)
        short = [i for i in range(12) if i not in (5, 11)]
        rows[short, 8:] = np.nan
        rows[short, 4] = np.nan  # eight observed years in two runs of four
        with pytest.warns(PanelWarning) as caught:
            r = panel(unitroot.fisher_adf, make_series(rows))
        assert [str(w.message) for w in caught] == [
            "fisher_adf(v): dropped 10 entity(ies) below 5 contiguous observations: "
            "E0, E1, E2, E3, E4, E6, E7, E8..."
        ]
        assert [row[0] for row in r.per_entity] == ["E5", "E11"]

    def test_only_each_longest_run_is_read(self):
        gappy, runs_only = longest_run_panel(35)
        assert np.isfinite(gappy.values).sum() > np.isfinite(runs_only.values).sum()
        for test in (unitroot.fisher_adf, unitroot.fisher_pp, ips_test, llc_test):
            r = panel(test, gappy)
            assert math.isfinite(r.statistic)
            # repr prints each float's shortest round-trip form: equal reprs, equal bits
            assert repr(r) == repr(panel(test, runs_only))

    def test_differences_are_each_runs_own_zero_padded(self):
        gappy, _ = longest_run_panel(38)
        idx = np.array([3, 0, 5])
        own = [np.diff(longest_run(row)) for row in gappy.values[idx]]
        assert len({d.size for d in own}) == 3
        runs = Runs((gappy,))
        dY = runs.differences(idx)
        assert dY.shape == (3, max(d.size for d in own))
        for row, d in zip(dY, own):
            np.testing.assert_array_equal(row, np.pad(d, (0, dY.shape[1] - d.size)))
        assert runs.differences(idx) is not dY  # formed anew, not kept on the layout

    def test_non_integer_lags_refused(self):
        # not truncated to an int lag for each entity
        series = make_series(ar_panel(np.random.default_rng(9), 3, 30, 0.5))
        for test in (unitroot.fisher_adf, ips_test, llc_test):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                panel(test, series, lags=1.5)

    def test_length_rules_evaluated_once_per_distinct_length(self, monkeypatch):
        series, _ = longest_run_panel(36)
        lengths = [len(longest_run(row)) for row in series.values]
        first_seen = list(dict.fromkeys(lengths))
        assert len(first_seen) < len(lengths)
        entity_lags, ips_moments = unitroot._entity_lags, unitroot._ips_moments
        lag_calls, moment_calls = [], []

        def lags_counted(T, *args, **kwargs):
            lag_calls.append(T)
            return entity_lags(T, *args, **kwargs)

        def moments_counted(T, p, det):
            moment_calls.append(T)
            return ips_moments(T, p, det)

        monkeypatch.setattr(unitroot, "_entity_lags", lags_counted)
        monkeypatch.setattr(unitroot, "_ips_moments", moments_counted)
        for test in (unitroot.fisher_adf, ips_test, llc_test):
            lag_calls.clear()
            panel(test, series)
            assert lag_calls == first_seen
        assert moment_calls == first_seen

    @pytest.mark.parametrize("order", ["level", "difference"])
    def test_constant_runs_dropped_with_one_warning(self, order):
        rows = np.cumsum(np.random.default_rng(37).standard_normal((7, 40)), axis=1)
        rows[5, :4] = np.nan
        rows[1] = 5.0
        constant = ["E1"]
        if order == "difference":
            # an exact trend in levels is a singular design, but its difference is constant
            rows[3] = 3.0 + 2.0 * np.arange(40)
            constant.append("E3")
        full = make_series(rows)
        keep = [i for i, e in enumerate(full.entities) if e not in constant]
        reduced = replace(full, entities=tuple(full.entities[i] for i in keep), values=rows[keep])
        if order == "difference":
            full, reduced = first_difference(full), first_difference(reduced)
        for test in PANEL_TESTS:
            with pytest.warns(PanelWarning) as caught:
                r = panel(test, full)
            assert [str(w.message) for w in caught if "dropped" in str(w.message)] == [
                f"{test.__name__}({full.name}): dropped {len(constant)} entity(ies) "
                f"constant over their longest run: {', '.join(constant)}"
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PanelWarning)
                assert repr(r) == repr(panel(test, reduced))

    @pytest.mark.parametrize("det", ["c", "ct"])
    @pytest.mark.parametrize("test", [unitroot.fisher_pp, unitroot.fisher_adf, ips_test, llc_test,
                                      adf_test, pp_test])
    def test_extreme_scales_exact_or_refused_naming_magnitude(self, test, det):
        # the random walks of test_perfect_fit_refused_naming_entity, without E2, and the
        # single tests on E0; at 1e-150 LLC read -89% (c) and -95% (ct) off, and below it
        # the tests gave NaN or garbage
        rows = np.delete(np.cumsum(np.random.default_rng(25).standard_normal((6, 40)), axis=1), 2, 0)
        run = ((lambda walks: panel(test, make_series(walks), det)) if test in PANEL_TESTS
               else (lambda walks: test(walks[0], det=det)))
        unit = run(rows)
        refused = []
        for scale in (1e140, 1e-140, 1e-150, 1e-155, 1e-158, 1e-200, 1e150, 1e155):
            try:
                r = run(scale * rows)
            except ValueError as exc:
                assert re.search(r"(E\d|the series) has values of magnitude \d\.\de[+-]\d+, whose "
                                 "squares leave the normal float range$", str(exc)), (scale, str(exc))
                refused.append(scale)
            else:
                assert r.statistic == pytest.approx(unit.statistic, rel=1e-9), scale
                assert r.p_value == pytest.approx(unit.p_value, rel=1e-9), scale
        assert refused == [1e-155, 1e-158, 1e-200, 1e155]

    def test_differences_twice_the_peak_refused_by_magnitude(self):
        # E0 alternates about +-0.9 sqrt(max/20): its values pass peak * sqrt(20) < sqrt(max),
        # but its differences, twice as large, would overflow the Dickey-Fuller fits
        rows = np.cumsum(np.random.default_rng(3).standard_normal((5, 20)), axis=1)
        rows[0] = 0.9 * np.sqrt(np.finfo(float).max / 20) * (-1.0) ** np.arange(20)
        magnitude = r"has values of magnitude \d\.\de\+153, whose squares leave the normal float range$"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            battery = run_battery(make_dataset(rows, name="probe"), ("probe",), det="c")
            for test in (adf_test, pp_test):
                with pytest.raises(ValueError, match=f"^{test.__name__}: the series {magnitude}"):
                    test(rows[0])
        assert len(battery.cells) == 8
        for cell in battery.cells.values():
            assert re.search(f"E0 {magnitude}", cell.error), cell.error

    def test_constant_runs_leaving_one_entity_refused(self):
        rows = np.cumsum(np.random.default_rng(38).standard_normal((3, 40)), axis=1)
        rows[[0, 2]] = 1.5
        for test in PANEL_TESTS:
            with pytest.warns(PanelWarning, match="constant over their longest run: E0, E2$"):
                with pytest.raises(ValueError, match="fewer than two usable entities"):
                    panel(test, make_series(rows))


    @pytest.mark.parametrize("det", ["n", "c", "ct"])
    @pytest.mark.parametrize("test", [adf_test, pp_test])
    def test_constant_single_series_refused(self, test, det):
        # the panel tests drop a constant run; a single constant series is refused by name
        # rather than reach a singular Dickey-Fuller design, and all zeros by magnitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{test.__name__}: the series is constant$"):
                test(np.full(20, 3.0), det=det)
            with pytest.raises(ValueError, match="the series has values of magnitude 0.0e"):
                test(np.zeros(20), det=det)


PANEL_TESTS = (unitroot.fisher_pp, unitroot.fisher_adf, ips_test, llc_test)


def df_design(run, det, lags):
    """The Dickey-Fuller design of one unpadded run: lagged level, lagged differences
    (most recent first), deterministic terms."""
    T, dy = len(run), np.diff(run)
    rows = T - 1 - lags
    X = np.empty((rows, 1 + lags + unitroot.DET_TERMS[det]))
    X[:, 0] = run[lags:-1]
    for j in range(1, lags + 1):
        X[:, j] = dy[lags - j : T - 1 - j]
    if det in ("c", "ct"):
        X[:, lags + 1] = 1.0
    if det == "ct":
        X[:, lags + 2] = np.arange(rows)
    return X


def llc_reference(series, det="c", lags=None):
    """LLC entity by entity: each run's difference and lagged level projected off
    the lags and deterministic terms with pinv, and one kernel call per entity."""
    runs = Runs((series,), det)
    usable = runs.usable(_shortest_run(det), "llc_test")
    if usable.out[0] is not None:
        raise usable.out[0]
    idx, lengths, kept = usable.idx, usable.lengths, tuple(usable.labels)
    Y = runs.Y[idx]
    lags_pe = unitroot._by_length(lambda T: unitroot._entity_lags(T, det, lags), lengths)
    t_effs = lengths - 1 - lags_pe
    t_tilde = float(np.mean(t_effs))
    mu_star, sigma_star = dfc.llc_adjustment(t_tilde, det)
    e_all, v_all, s_ratios = [], [], []
    for padded, T, p_i, rows in zip(Y, lengths.tolist(), lags_pe.tolist(), t_effs.tolist()):
        dy = np.diff(padded[:T])
        X = df_design(padded[:T], det, p_i)
        target_dy, target_lev, Q = dy[p_i:], X[:, 0], X[:, 1:]
        if Q.shape[1]:
            QtQ_inv = np.linalg.pinv(Q.T @ Q)
            e_i = target_dy - Q @ (QtQ_inv @ (Q.T @ target_dy))
            v_i = target_lev - Q @ (QtQ_inv @ (Q.T @ target_lev))
        else:
            e_i, v_i = target_dy.copy(), target_lev.copy()
        denom = float(v_i @ v_i)
        delta_i = float(e_i @ v_i) / denom if denom > 0 else 0.0
        resid_i = e_i - delta_i * v_i
        s2_i = float(resid_i @ resid_i) / rows
        if s2_i <= 0:
            raise ValueError(f"llc_test({series.name}): degenerate entity regression")
        e_all.append(e_i / np.sqrt(s2_i))
        v_all.append(v_i / np.sqrt(s2_i))
        d_adj = dy - dy.mean() if det == "ct" else dy
        K = min(int(np.floor(3.21 * d_adj.shape[0] ** (1.0 / 3.0))), d_adj.shape[0] - 2)
        lrv = float(long_run_covariances(d_adj, max(K, 0))[0][0, 0])
        s_ratios.append(np.sqrt(max(lrv, 1e-300) / s2_i))
    N = len(kept)
    e, v = np.concatenate(e_all), np.concatenate(v_all)
    denom = float(v @ v)
    delta = float(e @ v) / denom
    resid = e - delta * v
    sigma2_eps = float(resid @ resid) / e.shape[0]
    std_delta = np.sqrt(sigma2_eps / denom)
    adj = N * t_tilde * float(np.mean(s_ratios)) * std_delta / sigma2_eps * mu_star
    t_star = (delta / std_delta - adj) / sigma_star
    return unitroot.UnitRootResult(
        test="llc", statistic=float(t_star), p_value=float(ndtr(t_star)),
        det=det, lags=None, n_obs=e.shape[0], n_entities=N,
        per_entity=tuple(zip(kept, [float("nan")] * N, [float("nan")] * N, lags_pe.tolist())),
    )


def llc_panel(seed):
    """A seeded random-walk or white-noise panel of 2..25 entities over 20..90
    years; odd seeds blank about 8% of the cells, so runs differ in length."""
    rng = np.random.default_rng(seed)
    n, T = rng.integers(2, 26), rng.integers(20, 91)
    rows = rng.standard_normal((n, T))
    if seed % 3:
        rows = np.cumsum(rows, axis=1)
    if seed % 2:
        rows[rng.random((n, T)) < 0.08] = np.nan
    return make_series(rows)


def outcome(call, *args, **options):
    """A call's result, or the text of the ValueError it raised."""
    try:
        return call(*args, **options)
    except ValueError as exc:
        return str(exc)


class TestLlc:
    def test_single_entity_rejected(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError, match="fewer than two"):
            panel(llc_test, make_series(rng.standard_normal((1, 40))))

    def test_short_panel_below_adjustment_table(self, monkeypatch):
        # the table refuses before any entity is partialled out or smoothed
        def fail(*args, **kwargs):
            raise AssertionError("an entity was fitted before the table check")

        monkeypatch.setattr(unitroot, "_df_regression", fail)
        monkeypatch.setattr(unitroot, "long_run_covariances", fail)
        rng = np.random.default_rng(23)
        rows = np.cumsum(rng.standard_normal((4, 9)), axis=1)
        with pytest.raises(ValueError, match="adjustment table"):
            panel(llc_test, make_series(rows))

    @pytest.mark.parametrize("t_tilde, want", [(250, (-0.509, 0.742)), (500, (-0.5045, 0.7245)),
                                               (math.inf, (-0.5, 0.707))])
    def test_adjustment_interpolates_in_inverse_length_past_the_last_row(self, t_tilde, want):
        # from the last finite row (250) to the asymptote the weight is 250 / t_tilde
        assert dfc.llc_adjustment(t_tilde, "c") == pytest.approx(want, rel=0, abs=1e-12)

    def test_random_walk_size(self):
        rng = np.random.default_rng(20)
        hits = 0
        for _ in range(100):
            rows = np.cumsum(rng.standard_normal((20, 50)), axis=1)
            if panel(llc_test, make_series(rows)).p_value > 0.05:
                hits += 1
        assert hits >= 90

    def test_stationary_power(self):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(100):
            if panel(llc_test, make_series(ar_panel(rng, 20, 50, 0.3))).p_value < 0.05:
                hits += 1
        assert hits >= 95

    def test_p_is_lower_tail(self):
        rng = np.random.default_rng(24)
        r = panel(llc_test, make_series(ar_panel(rng, 8, 40, 0.5)))
        assert r.p_value == pytest.approx(
            float(0.5 * (1 + math.erf(r.statistic / math.sqrt(2)))), abs=1e-12
        )

    @pytest.mark.parametrize("lags", [None, 0, 2])
    @pytest.mark.parametrize("det", ["n", "c", "ct"])
    def test_matches_per_entity_reference(self, det, lags):
        fitted = 0
        for seed in range(120, 150):
            series = llc_panel(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PanelWarning)
                got = outcome(panel, llc_test, series, det, lags=lags)
                want = outcome(llc_reference, series, det=det, lags=lags)
            if isinstance(want, str):
                assert got == want
                continue
            fitted += 1
            for a, b in ((got.statistic, want.statistic), (got.p_value, want.p_value)):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
            assert (got.n_obs, got.n_entities) == (want.n_obs, want.n_entities)
            assert repr(got.per_entity) == repr(want.per_entity)
        assert fitted >= 10

    def test_rank_deficient_entity_raises_like_adf(self):
        # an exact linear trend: its lagged differences repeat the intercept; the
        # cells read a bare "Singular matrix" before the refusal named the entity
        rows = np.cumsum(np.random.default_rng(25).standard_normal((6, 40)), axis=1)
        rows[2] = 3.0 + 2.0 * np.arange(40)
        series = make_series(rows)
        assert math.isfinite(llc_reference(series).statistic)  # pinv hid the singular design
        for det in ("c", "ct"):
            with pytest.raises(ValueError, match="^adf_test: singular Dickey-Fuller design for the series$"):
                adf_test(rows[2], det=det)
            for test in (llc_test, unitroot.fisher_adf, ips_test):
                with pytest.raises(ValueError, match=rf"^{test.__name__}\(v\): singular Dickey-Fuller design for E2$"):
                    panel(test, series, det)

    def test_one_fit_per_lag_and_one_kernel_call_per_series(self, monkeypatch):
        series, runs = random_run_series(np.random.default_rng(26))
        lengths = [len(run) for run in runs]
        fits, kernels = [], []
        fit, kernel = unitroot._df_regression, unitroot.long_run_covariances

        def fit_counted(y, det, lags, lengths=None):
            fits.append((y.shape, lags, np.asarray(lengths).tolist()))
            return fit(y, det, lags, lengths)

        def kernel_counted(eta, bandwidth, lengths=None):
            kernels.append((eta.shape, np.asarray(lengths).tolist()))
            return kernel(eta, bandwidth, lengths)

        monkeypatch.setattr(unitroot, "_df_regression", fit_counted)
        monkeypatch.setattr(unitroot, "long_run_covariances", kernel_counted)
        panel(llc_test, series)
        assert len(set(lengths)) > 10
        # each lag's runs, in run order, cut to their longest
        lags = [unitroot._entity_lags(T, "c", None) for T in lengths]
        assert len(set(lags)) > 1
        assert fits == [
            ((lags.count(p), max(T for T, q in zip(lengths, lags) if q == p)), p,
             [T for T, q in zip(lengths, lags) if q == p])
            for p in sorted(set(lags))
        ]
        # every run's first differences, zero-padded to the longest
        assert kernels == [((len(runs), max(lengths) - 1, 1), [T - 1 for T in lengths])]


@pytest.mark.parametrize("test", [unitroot.fisher_adf, unitroot.fisher_pp, llc_test])
def test_panel_tests_name_an_unknown_det(test):
    series = make_series(np.cumsum(np.random.default_rng(45).standard_normal((5, 20)), axis=1))
    with pytest.raises(ValueError, match=r"^unknown deterministic case 'x'$"):
        panel(test, series, "x")


class TestBattery:
    def test_stationary_panel_rejects_everywhere(self):
        rng = np.random.default_rng(41)
        with pytest.warns(PanelWarning, match="clamped"):
            b = run_battery(make_dataset(ar_panel(rng, 20, 100, 0.3)), ("v",))
        assert set(b.cells) == {
            ("v", order, test) for order in b.orders for test in b.tests
        }
        for cell in b.cells.values():
            assert cell.error is None
            assert cell.result.p_value < 0.05

    def test_random_walk_pattern(self):
        rng = np.random.default_rng(42)
        rows = np.cumsum(rng.standard_normal((20, 50)), axis=1)
        b = run_battery(make_dataset(rows), ("v",))
        assert b.cell("v", "level", "fisher-adf").result.p_value > 0.05
        assert b.cell("v", "difference", "fisher-adf").result.p_value < 0.05

    def test_short_panel_marks_llc_cells(self):
        # T = 9 supports the Fisher and IPS tests but sits below the LLC
        # adjustment table, so those cells carry error markers instead
        rng = np.random.default_rng(43)
        rows = np.cumsum(rng.standard_normal((6, 9)), axis=1)
        b = run_battery(make_dataset(rows), ("v",))
        assert "adjustment table" in b.cell("v", "level", "llc").error
        assert b.cell("v", "level", "fisher-adf").result is not None
        assert b.cell("v", "level", "ips").result is not None

    def test_unknown_det_raises_before_any_cell(self, monkeypatch):
        # an unknown case would fail every cell alike, so the battery refuses it up front
        called = []
        monkeypatch.setattr(unitroot, "Runs", lambda *a, **k: called.append(a))
        rows = np.cumsum(np.random.default_rng(45).standard_normal((5, 20)), axis=1)
        with pytest.raises(ValueError, match=r"^unknown deterministic case 'x'$"):
            run_battery(make_dataset(rows), ("v",), det="x")
        assert called == []

    def test_panel_without_entities_gives_error_cells(self):
        # the one layout per series is built before any test's refusal, also for no entities
        ds = PanelDataset(entities=(), periods=tuple(range(2000, 2010)))
        ds.add(VariableSeries(name="v", entities=(), periods=ds.periods, values=np.zeros((0, 10))))
        b = run_battery(ds, ("v",))
        assert [cell.error for cell in b.cells.values()] == [
            f"{test}({name}): fewer than two usable entities"
            for name in ("v", "d_v") for test in ("fisher_pp", "fisher_adf", "ips_test", "llc_test")
        ]

    def test_missing_variable_raises(self):
        rng = np.random.default_rng(44)
        ds = make_dataset(rng.standard_normal((4, 30)))
        with pytest.raises(KeyError):
            run_battery(ds, variables=["ghost"])


def sharing_dataset(seed=46, n=30, T=60):
    """Three gappy variables.  walk: random walks with runs of 3..60 years, one
    entity constant over its run; noise: white noise with scattered gaps, so Fisher
    p-values reach the clamp; sparse: runs of 5..7 years, so IPS keeps too few
    entities and LLC sits below its adjustment table."""
    rng = np.random.default_rng(seed)
    rows = {"walk": np.cumsum(rng.standard_normal((n, T)), axis=1),
            "noise": rng.standard_normal((n, T)),
            "sparse": np.cumsum(rng.standard_normal((n, T)), axis=1)}
    for name, lo, hi, gaps in (("walk", 3, T, 0.0), ("noise", 20, T, 0.03), ("sparse", 5, 7, 0.0)):
        for row in rows[name]:
            length = int(rng.integers(lo, hi + 1))
            start = int(rng.integers(0, T - length + 1))
            row[:start] = np.nan
            row[start + length :] = np.nan
            row[rng.random(T) < gaps] = np.nan
    rows["walk"][0] = np.where(np.isfinite(rows["walk"][0]), 2.0, np.nan)
    ds = PanelDataset(entities=tuple(f"E{i}" for i in range(n)), periods=tuple(range(1950, 1950 + T)))
    for name, values in rows.items():
        ds.add(VariableSeries(name=name, entities=ds.entities, periods=ds.periods, values=values))
    return ds


def flat_numbers(result):
    """A result's fields as (numbers, everything else), per-entity rows included."""
    numbers, other = [], []
    for value in (result.statistic, result.p_value, *[x for row in result.per_entity for x in row]):
        (numbers if isinstance(value, float) else other).append(value)
    return numbers, other + [result.test, result.det, result.lags, result.n_obs, result.bandwidth,
                             result.n_entities, result.df]


class TestBatterySharing:
    """run_battery lays out each chunk of series once and fits each run once per lag, and
    still gives what the four public tests give on each series laid out alone."""

    OPTIONS = {"det": "ct", "lags": 1, "bandwidth": 2}

    def test_battery_equals_public_tests_in_order(self):
        ds = sharing_dataset()
        battery_series = [(name, order, series) for name in ds.variables
                          for order, series in (("level", ds[name]), ("difference", first_difference(ds[name])))]
        # one chunk: six series of 30 x 60 cells
        assert sum(series.values.size for _, _, series in battery_series) <= unitroot.BATTERY_CELLS
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            battery = run_battery(ds, ("walk", "noise", "sparse"), **self.OPTIONS)
        got_warnings = [(w.category, str(w.message)) for w in caught]
        want, want_warnings = {}, []
        # the battery's order: chunk, then test, then series; within a test, the drop
        # warnings of every series come first, since they are given before any fit
        for test, fn in zip(BATTERY_TESTS, PANEL_TESTS):
            option = "bandwidth" if fn is unitroot.fisher_pp else "lags"
            drops, others = [], []
            for name, order, series in battery_series:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    want[(name, order, test)] = outcome(panel, fn, series, "ct", **{option: self.OPTIONS[option]})
                for w in caught:
                    (drops if ": dropped " in str(w.message) else others).append((w.category, str(w.message)))
            want_warnings += drops + others
        assert got_warnings == want_warnings
        assert any("constant over their longest run" in text for _, text in got_warnings)
        assert any("clamped" in text for _, text in got_warnings)
        assert list(battery.cells) == [(name, order, test) for name, order, _ in battery_series
                                       for test in BATTERY_TESTS]
        errors = {key for key, value in want.items() if isinstance(value, str)}
        assert {("sparse", "level", "ips"), ("sparse", "level", "llc")} <= errors
        assert ("walk", "level", "llc") not in errors
        for key, cell in battery.cells.items():
            if key in errors:
                assert (cell.result, cell.error) == (None, want[key])
            else:
                numbers, other = flat_numbers(cell.result)
                want_numbers, want_other = flat_numbers(want[key])
                assert cell.error is None and other == want_other
                assert numbers == pytest.approx(want_numbers, rel=1e-12, abs=0, nan_ok=True)

    def test_each_series_laid_out_once_and_each_run_fitted_once_per_lag(self, monkeypatch):
        layouts, fits = [], []
        layout, kernel = unitroot.longest_runs, unitroot._df_regression

        def counted(*args):
            layouts.append(args[0])
            return layout(*args)

        def recording(y, det, lags, lengths=None):
            fits.append([(lags, row[:T].tobytes()) for row, T in zip(y, np.asarray(lengths).tolist())])
            return kernel(y, det, lags, lengths)

        monkeypatch.setattr(unitroot, "longest_runs", counted)
        monkeypatch.setattr(unitroot, "_df_regression", recording)
        ds = sharing_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PanelWarning)
            run_battery(ds, ("walk", "noise", "sparse"), **self.OPTIONS)
        assert len(layouts) == 1  # the six series make one chunk
        pairs = [pair for call in fits for pair in call]
        assert len(pairs) == len(set(pairs))  # no (run, lag) fitted twice
        # over the chunk, PP's lag-0 fits and Fisher-ADF's lag-1 fits, which IPS and LLC read
        assert [{lag for lag, _ in call} for call in fits] == [{0}, {1}]

        # balanced, default lags: PP's lag-0 fits, then Fisher-ADF's, which IPS and LLC read,
        # each one call over the chunk's four series of eight runs
        del layouts[:], fits[:]
        rng = np.random.default_rng(47)
        ds = PanelDataset(entities=tuple(f"E{i}" for i in range(8)), periods=tuple(range(1950, 1990)))
        for name in ("a", "b"):
            ds.add(VariableSeries(name=name, entities=ds.entities, periods=ds.periods,
                                  values=np.cumsum(rng.standard_normal((8, 40)), axis=1)))
        battery = run_battery(ds, ("a", "b"))
        assert all(cell.error is None for cell in battery.cells.values())
        assert len(layouts) == 1
        assert [{lag for lag, _ in call} for call in fits] == [{0}, {3}]
        assert [len(call) for call in fits] == [32, 32]


def fixture_logs():
    """The paper analysis' unit-root input: the shipped fixture's six series, logged."""
    raw = read_panel_csv(fixture_path())
    ds = PanelDataset(entities=raw.entities, periods=raw.periods)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelWarning)  # one zero aid value
        for name in RAW_VARIABLES:
            ds.add(natural_log(raw[name]))
    return ds


class TestChunks:
    """run_battery tests chunks of consecutive series together; each cell is what the
    series' own one-series layout gives."""

    @pytest.mark.parametrize("panel_name", ["fixture", "gappy"])
    def test_chunked_cells_equal_one_series_at_a_time(self, panel_name):
        ds = fixture_logs() if panel_name == "fixture" else sharing_dataset(seed=48, n=40, T=30)
        names = tuple(ds.variables)
        battery_series = [(name, order, series) for name in names
                          for order, series in (("level", ds[name]), ("difference", first_difference(ds[name])))]
        # one chunk each: the fixture's twelve series of 74 x 9 cells, six of 40 x 30
        assert sum(series.values.size for _, _, series in battery_series) <= unitroot.BATTERY_CELLS
        width = Runs([series for _, _, series in battery_series]).Y.shape[1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PanelWarning)
            battery = run_battery(ds, names)
            fitted = 0
            for name, order, series in battery_series:
                # a chunk padding a series wider than its own runs may move the last bits
                exact = Runs((series,)).Y.shape[1] == width
                for test, fn in zip(BATTERY_TESTS, PANEL_TESTS):
                    alone, cell = outcome(panel, fn, series), battery.cell(name, order, test)
                    if isinstance(alone, str):
                        assert (cell.result, cell.error) == (None, alone)
                        continue
                    fitted += 1
                    numbers, other = flat_numbers(cell.result)
                    want_numbers, want_other = flat_numbers(alone)
                    assert cell.error is None and other == want_other  # entities, lags, bandwidths
                    if exact:
                        assert repr(numbers) == repr(want_numbers)
                    else:
                        assert numbers == pytest.approx(want_numbers, rel=1e-13, abs=0, nan_ok=True)
        assert fitted >= 12

    @pytest.mark.parametrize("n, T, per_chunk", [(600, 30, [1, 1, 1, 1]), (500, 20, [3, 1])])
    def test_chunks_keep_to_the_cell_budget(self, monkeypatch, n, T, per_chunk):
        rng = np.random.default_rng(49)
        ds = PanelDataset(entities=tuple(f"E{i}" for i in range(n)), periods=tuple(range(1950, 1950 + T)))
        for name in ("a", "b"):
            ds.add(VariableSeries(name=name, entities=ds.entities, periods=ds.periods,
                                  values=np.cumsum(rng.standard_normal((n, T)), axis=1)))
        layouts, cells = [], []
        layout, kernel = unitroot.Runs, unitroot._df_regression

        def counted(series, det):
            layouts.append(len(series))
            return layout(series, det)

        def measured(y, det, lags, lengths=None):
            cells.append(y.size)
            return kernel(y, det, lags, lengths)

        monkeypatch.setattr(unitroot, "Runs", counted)
        monkeypatch.setattr(unitroot, "_df_regression", measured)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PanelWarning)
            run_battery(ds, ("a", "b"))
        assert layouts == per_chunk
        assert cells and max(cells) <= unitroot.BATTERY_CELLS


class TestRoundingNoiseFits:
    """A fit made of rounding noise, or of an exactly singular design, refuses its series at
    every lag, naming the entity, and leaves the other series of its chunk alone."""

    def test_singular_design_leaves_the_stack_alone(self):
        rng = np.random.default_rng(50)
        Y = np.cumsum(rng.standard_normal((5, 20)), axis=1)
        Y[2] = 5.0 + 2.0 * np.arange(20)  # its lagged differences repeat the intercept
        got = _df_regression(Y, "c", 2)
        want = _df_regression(np.delete(Y, 2, axis=0), "c", 2)
        for a, b in zip(got[:4], want[:4]):
            assert np.all(np.isnan(a[2]))
            assert np.delete(a, 2, axis=0).tobytes() == b.tobytes()

    @pytest.mark.parametrize("det", ["c", "ct"])
    @pytest.mark.parametrize("trend", [lambda t: 1.0 + 0.1 * t, lambda t: 5.0 + 2.0 * t], ids=["1+0.1t", "5+2t"])
    def test_probe_panel_refuses_only_its_own_cells(self, det, trend):
        # at the parent of this check: E0's tau of 0.494 from a rounding-noise fit (c), a
        # NaN tau that IPS and LLC printed and Fisher-ADF met with "p-values must be finite
        # and at most 1" (ct), and bare "Singular matrix" cells (5 + 2t)
        rng = np.random.default_rng(3)
        probe = np.cumsum(rng.standard_normal((20, 30)), axis=1)
        probe[0] = trend(np.arange(30.0))
        ds = make_dataset(probe, name="probe")
        walk = make_series(np.cumsum(np.random.default_rng(51).standard_normal((20, 30)), axis=1), name="walk")
        ds.add(walk)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", PanelWarning)
            battery = run_battery(ds, ("probe", "walk"), det=det)
            alone = run_battery(make_dataset(walk.values, name="walk"), ("walk",), det=det)
        for (name, order, test), cell in battery.cells.items():
            if name == "walk":
                assert repr(cell) == repr(alone.cell(name, order, test))
            elif cell.error is not None:
                fn = dict(zip(BATTERY_TESTS, PANEL_TESTS))[test].__name__
                assert re.fullmatch(rf"(pp_test|{fn}\((d_)?probe\)): (perfect fit for E0 \(regression "
                                    r"standard error [^)]+\)|singular Dickey-Fuller design for E0)", cell.error)
            else:
                assert order == "difference" and math.isfinite(cell.result.statistic)
                assert all(math.isfinite(x) for row in cell.result.per_entity for x in row[1:3]
                           if test != "llc")
        assert all(battery.cell("probe", "level", test).error for test in BATTERY_TESTS)

    def test_adf_test_refuses_the_same_fits(self):
        y = 5.0 + 2.0 * np.arange(20)
        with pytest.raises(ValueError, match=r"^adf_test: perfect fit for the series \(regression standard error 0\)$"):
            adf_test(y, lags=0)
        with pytest.raises(ValueError, match="^adf_test: singular Dickey-Fuller design for the series$"):
            adf_test(y, lags=2)
