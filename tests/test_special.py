"""panelmetrics._special against scipy.special, and against closed forms where scipy is off."""

import math

import numpy as np
import pytest
from scipy import special as sc

from panelmetrics import _special

TINY = np.finfo(float).tiny  # compare only where scipy's value is a normal float


def test_ndtr_matches_scipy_into_the_far_tail():
    x = np.linspace(-37.0, 9.0, 9201)
    np.testing.assert_allclose(_special.ndtr(x), sc.ndtr(x), rtol=1e-13, atol=0)


CHI2_DF = sorted({*range(1, 41), *np.geomspace(41, 2000, 30).astype(int).tolist()})


@pytest.mark.parametrize("df", CHI2_DF)
def test_chdtrc_matches_scipy(df):
    spread = 3.0 * math.sqrt(2.0 * df)
    x = np.concatenate([np.geomspace(1e-6, 1e4, 161), [df - spread, df + spread]])
    x = x[x > 0]
    expected = sc.chdtrc(df, x)
    normal = expected >= TINY
    np.testing.assert_allclose(_special.chdtrc(df, x[normal]), expected[normal], rtol=2e-12, atol=0)


@pytest.mark.parametrize("df", [2, 4, 6, 10, 20, 40, 60])
def test_chdtrc_even_df_closed_form(df):
    # Q(m, y) = e^-y sum_{k < m} y^k / k! for df = 2m, x = 2y
    for x in np.geomspace(1e-6, 1400.0, 97).tolist():
        y, term, terms = x / 2, math.exp(-x / 2), []
        for k in range(df // 2):
            terms.append(term)
            term *= y / (k + 1)
        assert _special.chdtrc(df, x) == pytest.approx(math.fsum(terms), rel=1e-13, abs=0)


def _t_grid(df):
    # log-spaced |t| plus the switch between the BGRAT expansion and the fraction (log z = -2)
    t = np.concatenate([np.geomspace(1e-3, 40.0, 121), [math.sqrt(df * math.expm1(2.0))]])
    return np.concatenate([-t, t])


@pytest.mark.parametrize("df", [*range(3, 31), 31, 45, 100, 1000, 10**4, 10**5])
def test_stdtr_matches_scipy(df):
    t = _t_grid(df)
    expected = sc.stdtr(df, t)
    normal = expected >= TINY
    np.testing.assert_allclose(_special.stdtr(df, t[normal]), expected[normal], rtol=1e-12, atol=0)


@pytest.mark.parametrize("df", [1, 2])
def test_stdtr_closed_forms(df):
    # scipy is about 1e-9 off near t = 0 at df 1, so these check the exact forms instead
    t = np.geomspace(1e-8, 40.0, 161)
    if df == 1:
        lower = np.arctan(1.0 / t) / np.pi
    else:
        root = np.sqrt(2.0 + t * t)
        lower = 1.0 / (root * (root + t))
    np.testing.assert_allclose(_special.stdtr(df, -t), lower, rtol=1e-12, atol=0)
    np.testing.assert_allclose(_special.stdtr(df, t), 1.0 - lower, rtol=1e-12, atol=0)


def test_special_values_and_shapes():
    inf, nan = math.inf, math.nan
    assert math.isnan(_special.ndtr(nan))
    assert (_special.ndtr(inf), _special.ndtr(-inf)) == (1.0, 0.0)
    assert math.isnan(_special.chdtrc(3, nan))
    assert _special.chdtrc(3, inf) == 0.0
    assert _special.chdtrc(3, 0.0) == _special.chdtrc(3, -1e-12) == _special.chdtrc(3, -inf) == 1.0
    assert math.isnan(_special.stdtr(7, nan))
    assert (_special.stdtr(7, inf), _special.stdtr(7, -inf), _special.stdtr(7, 0.0)) == (1.0, 0.0, 0.5)
    for value in (_special.ndtr(0.3), _special.ndtr(np.float64(0.3)), _special.ndtr(np.array(0.3)),
                  _special.chdtrc(3, 2), _special.chdtrc(np.int64(3), np.float64(2.0)),
                  _special.stdtr(7, -2), _special.stdtr(np.int64(7), np.array(-2.0))):
        assert type(value) is float
    grid = np.array([[-1.0, nan], [inf, 0.5]])
    for f in (_special.ndtr, lambda v: _special.chdtrc(4, v), lambda v: _special.stdtr(4, v)):
        out = f(grid)
        assert out.shape == grid.shape and out.dtype == float
        assert np.isnan(out[0, 1]) and out[1, 0] in (0.0, 1.0)
        assert out.ravel().tolist()[::3] == [f(-1.0), f(0.5)]
