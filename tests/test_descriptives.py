"""Summary moments, Jarque-Bera, and the correlation matrix."""

import math

import numpy as np
import pytest

from panelmetrics.data import PanelDataset, VariableSeries
from panelmetrics.descriptives import correlation_matrix, describe, describe_table, jarque_bera


def panel_of(columns, periods=None):
    names = list(columns)
    n = len(next(iter(columns.values())))
    periods = periods or tuple(range(2000, 2000 + n))
    ds = PanelDataset(entities=("A",), periods=periods)
    for name in names:
        ds.add(
            VariableSeries(
                name=name,
                entities=("A",),
                periods=periods,
                values=np.asarray(columns[name], dtype=float)[None, :],
            )
        )
    return ds


def series(values):
    return panel_of({"x": values})["x"]


class TestDescribe:
    def test_hand_values_one_to_five(self):
        stats = describe(series([1, 2, 3, 4, 5]))
        assert stats.n == 5
        assert stats.mean == pytest.approx(3.0)
        assert stats.median == pytest.approx(3.0)
        assert stats.maximum == 5.0
        assert stats.minimum == 1.0
        assert stats.std_dev == pytest.approx(1.581139, abs=1e-6)
        assert stats.skewness == pytest.approx(0.0, abs=1e-12)
        assert stats.kurtosis == pytest.approx(1.7)
        assert stats.total == pytest.approx(15.0)
        assert stats.sum_sq_dev == pytest.approx(10.0)

    def test_even_median_is_midpoint(self):
        assert describe(series([1, 2, 3, 10])).median == pytest.approx(2.5)

    def test_missing_cells_ignored(self):
        stats = describe(series([1.0, np.nan, 2.0, 3.0, np.nan, 6.0]))
        assert stats.n == 4
        assert stats.mean == pytest.approx(3.0)

    def test_constant_series_has_undefined_shape_moments(self):
        stats = describe(series([7.0, 7.0, 7.0, 7.0]))
        assert stats.std_dev == 0.0
        assert math.isnan(stats.skewness)
        assert math.isnan(stats.kurtosis)
        assert math.isnan(stats.jarque_bera)

    def test_consistency_identities(self):
        # published-row identities: sum/n = mean and sum-sq-dev = (n-1) var
        assert 2507.560 / 633 == pytest.approx(3.961391, abs=1e-5)
        assert math.sqrt(13.51222 / 632) == pytest.approx(0.146219, abs=1e-5)

    def test_identities_hold_on_computed_stats(self):
        rng = np.random.default_rng(11)
        stats = describe(series(rng.standard_normal(200)))
        assert stats.total == pytest.approx(stats.n * stats.mean, rel=1e-9)
        assert stats.sum_sq_dev == pytest.approx(
            (stats.n - 1) * stats.std_dev**2, rel=1e-9
        )
        assert stats.minimum <= stats.median <= stats.maximum

    def test_affine_equivariance(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(150)
        base, mapped = describe(series(x)), describe(series(2.5 * x + 4.0))
        assert mapped.mean == pytest.approx(2.5 * base.mean + 4.0, rel=1e-9)
        assert mapped.std_dev == pytest.approx(2.5 * base.std_dev, rel=1e-9)
        assert mapped.skewness == pytest.approx(base.skewness, abs=1e-9)
        assert mapped.kurtosis == pytest.approx(base.kurtosis, abs=1e-9)
        assert mapped.jarque_bera == pytest.approx(base.jarque_bera, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(60)
        a, b = describe(series(x)), describe(series(rng.permutation(x)))
        for attr in ("mean", "median", "std_dev", "skewness", "kurtosis", "jarque_bera"):
            assert getattr(a, attr) == pytest.approx(getattr(b, attr), rel=1e-12)

    def test_too_few_observations_rejected(self):
        with pytest.raises(ValueError):
            describe(series([1.0, 2.0, 3.0]))


class TestJarqueBera:
    def test_published_row_reproduced(self):
        stat, p = jarque_bera(633, -0.517344, 2.859780)
        assert stat == pytest.approx(28.755, abs=0.01)
        assert p == pytest.approx(5.7e-7, rel=0.05)
        assert f"{p:.6f}" == "0.000001"

    def test_second_published_row(self):
        stat, _ = jarque_bera(633, -1.322848, 5.678379)
        assert stat == pytest.approx(373.82, abs=0.05)

    def test_normal_moments_give_zero(self):
        stat, p = jarque_bera(500, 0.0, 3.0)
        assert stat == 0.0
        assert p == 1.0

    def test_closed_form_oracle(self):
        stat, p = jarque_bera(100, 0.5, 4.0)
        assert stat == pytest.approx(8.3333, abs=1e-3)
        assert p == pytest.approx(0.015504, abs=1e-5)
        assert p == pytest.approx(math.exp(-stat / 2.0), rel=1e-12)

    def test_monotone_in_abs_skewness(self):
        stats = [jarque_bera(80, s, 3.4)[0] for s in (0.0, 0.2, -0.5, 0.9)]
        assert stats[0] < stats[1] < stats[2] < stats[3]


class TestPearson:
    """The pairwise coefficient correlation_matrix computes."""

    @staticmethod
    def r(x, y):
        return correlation_matrix(panel_of({"x": x, "y": y}), ("x", "y"))[1][0, 1]

    def test_hand_example(self):
        assert self.r([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)

    def test_perfect_negative_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert self.r(x, -3.0 * x + 2.0) == pytest.approx(-1.0, abs=1e-12)

    def test_listwise_pairs(self):
        x = [1.0, 2.0, np.nan, 4.0]
        y = [2.0, 1.0, 3.0, 3.0]
        # the NaN row is dropped from both margins
        assert self.r(x, y) == pytest.approx(self.r([1, 2, 4], [2, 1, 3]), abs=1e-15)

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(21)
        x, y = rng.standard_normal(50), rng.standard_normal(50)
        r = self.r(x, y)
        assert self.r(2.0 * x + 1.0, y) == pytest.approx(r, abs=1e-12)
        assert self.r(-x, y) == pytest.approx(-r, abs=1e-12)


class TestCorrelationMatrix:
    def test_shared_listwise_sample(self):
        # the x NaN at 2002 and z NaN at 2000 shrink the shared sample to
        # rows 2001 and 2003..2005 for every pair, not per-pair samples
        ds = panel_of(
            {
                "x": [1.0, 2.0, np.nan, 4.0, 5.0, 6.0],
                "y": [2.0, 1.0, 4.0, 3.0, 5.0, 7.0],
                "z": [np.nan, 3.0, 2.0, 5.0, 4.0, 6.0],
            }
        )
        names, matrix, n_used = correlation_matrix(ds, ("x", "y", "z"))
        assert names == ("x", "y", "z")
        assert n_used == 4
        keep = [1, 3, 4, 5]
        x = np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0])[keep]
        y = np.array([2.0, 1.0, 4.0, 3.0, 5.0, 7.0])[keep]
        assert matrix[0, 1] == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_gram_invariants(self):
        rng = np.random.default_rng(31)
        ds = panel_of({name: rng.standard_normal(40) for name in "abcd"})
        _, matrix, n_used = correlation_matrix(ds, tuple("abcd"))
        assert n_used == 40
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
        np.testing.assert_array_equal(np.diag(matrix), 1.0)
        assert np.all(matrix >= -1.0) and np.all(matrix <= 1.0)

    def test_constant_variable_named_in_error(self):
        ds = panel_of({"x": [1.0, 2.0, 3.0, 4.0], "flat": [5.0, 5.0, 5.0, 5.0]})
        with pytest.raises(ValueError, match="flat"):
            correlation_matrix(ds, ("x", "flat"))

    def test_small_shared_sample_rejected(self):
        ds = panel_of({"x": [1.0, 2.0, np.nan], "y": [np.nan, 1.0, 2.0]})
        with pytest.raises(ValueError, match="shared listwise"):
            correlation_matrix(ds, ("x", "y"))

    def test_needs_two_variables(self):
        ds = panel_of({"x": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(ValueError, match="two variables"):
            correlation_matrix(ds, ("x",))


def test_describe_table_orders_rows():
    ds = panel_of(
        {"b": [1.0, 2.0, 3.0, 4.0], "a": [4.0, 3.0, 2.0, 1.0]}
    )
    rows = describe_table(ds, ["a", "b"])
    assert [r.variable for r in rows] == ["a", "b"]
