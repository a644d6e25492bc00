"""The moment-table generator's vectorized tau against the package's ADF."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from panelmetrics._ipsmoments import IPS_MAX_LAG, IPS_MOMENTS, IPS_T_GRID
from panelmetrics.unitroot import _ips_lag_cap, _max_feasible_lags, adf_test

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "gen_ips_moments.py"
_spec = importlib.util.spec_from_file_location("gen_ips_moments", _TOOL)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.mark.parametrize("det", ["c", "ct"])
def test_simulate_tau_matches_adf_test(det):
    reps = 4
    for T in gen.T_GRID:
        for p in sorted({0, gen.p_max(T, det)}):
            seed = np.random.SeedSequence([T, p])
            taus = gen.simulate_tau(T, p, det, reps, seed)
            # the same draws simulate_tau makes (reps fit in one chunk)
            walks = np.random.default_rng(seed).standard_normal((reps, T)).cumsum(axis=1)
            expected = [adf_test(y, det=det, lags=p).statistic for y in walks]
            np.testing.assert_allclose(taus, expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("det", ["c", "ct"])
def test_table_holds_exactly_the_capped_lags(det):
    assert gen.T_GRID == IPS_T_GRID
    assert {T for T, _ in IPS_MOMENTS[det]} == set(IPS_T_GRID)
    for T in IPS_T_GRID:
        cap = min(IPS_MAX_LAG, _max_feasible_lags(T, det, min_df=3))
        assert sorted(p for t, p in IPS_MOMENTS[det] if t == T) == list(range(cap + 1))
        assert _ips_lag_cap(T, det) == gen.p_max(T, det) == cap
