"""Single-series and panel unit-root tests.

Single series: augmented Dickey-Fuller (tau with response-surface p-values)
and Phillips-Perron (Bartlett long-run variance correction of the
unaugmented tau).  Panel: the pooled-t test with bias adjustments, the
standardized mean-t test, and Fisher combination of per-entity p-values,
plus a battery runner that applies all of them to levels and first
differences of each variable.

The Bartlett kernel (`long_run_covariances`, with the Newey-West bandwidth
rule) and the Dickey-Fuller regression (`_df_regression`) are defined here
once and work on blocks stacked on leading axes, a vector being one block;
FMOLS and tools/gen_ips_moments.py import them.  All three also take blocks
of different lengths, zero-padded at the end to a common one, with each
block's own length.

Every series handed to a test must be an unbroken calendar run.  The panel
tests take a chunk of series on one grid, laid out together (`Runs`): each
entity's longest contiguous stretch of each series (`data.longest_runs`,
FMOLS' rule too), series after series, in one array zero-padded at the end
(`data.pad_runs`).  Each test drops, with a warning naming them, the entities
that fail its length precondition or are constant over that stretch, and
returns one outcome per series, in order: its UnitRootResult, or the
ValueError that refuses it.  A test's lag depends on run length alone, so
each panel test settles the length rules (lags, bandwidth checks, table
coverage) once per distinct length in the chunk before any fit; the layout's
table fits each (run, lag) once, a lag's runs of the whole chunk in one padded
solve.  The fits, `mackinnon_p`, the bandwidth rule, the Bartlett kernel, the
length rules and the magnitude check run once per chunk and test; only the
drop rule, the refusals, the Fisher sum, the IPS mean and the LLC pooling go
series by series.  run_battery cuts its series into chunks of at most
BATTERY_CELLS grid cells.
A Dickey-Fuller fit whose regression standard error is at most PERFECT_FIT
times the RMS of its run's differences, or whose design is singular, refuses
its series, naming the entity: its tau would be rounding noise.  An exactly
singular design leaves the other runs of its stacked solve as they are.
Phillips-Perron pads every run's residuals for one bandwidth call and one
kernel call per chunk; LLC pools the fits' sums and makes one kernel call over
the runs' zero-padded differences, formed on each call (`Runs.differences`).
adf_test and pp_test are batches of one; they refuse a constant series, one
too short for a lag-0 fit, and a fit made of rounding noise.  A lag or
bandwidth that is not an integer is refused, not truncated.
"""

from __future__ import annotations

import operator
import warnings
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import _dfconstants as _dfc
from ._ipsmoments import IPS_MAX_LAG, IPS_MOMENTS, IPS_T_GRID
from ._special import chdtrc, ndtr
from .data import (
    PanelDataset,
    PanelWarning,
    _drop_runs,
    _first_seen,
    contiguous_run,
    first_difference,
    longest_runs,
    pad_runs,
)

P_FLOOR = 1e-16  # combination floor; keeps log(p) finite
SQUARE_RANGE = np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max)  # |values| with normal squares
PERFECT_FIT = 1e-12  # a fit with s at most this times its run's RMS difference is refused

DET_TERMS = {"n": 0, "c": 1, "ct": 2}  # deterministic columns per case


@dataclass(frozen=True)
class UnitRootResult:
    """Outcome of one unit-root test on one series or panel."""

    test: str
    statistic: float
    p_value: float
    det: str
    lags: int | None
    n_obs: int
    bandwidth: int | None = None
    n_entities: int | None = None
    df: int | None = None
    per_entity: tuple = ()


@dataclass(frozen=True)
class BatteryCell:
    """One (variable, order, test) slot: a result or an error marker."""

    variable: str
    order: str
    test: str
    result: UnitRootResult | None
    error: str | None = None


@dataclass(frozen=True)
class BatteryResult:
    variables: tuple
    orders: tuple
    tests: tuple
    cells: dict

    def cell(self, variable: str, order: str, test: str) -> BatteryCell:
        return self.cells[(variable, order, test)]


def default_lags(n_obs: int) -> int:
    """Schwert-style lag rule, floor(4 * (T/100)^(2/9))."""
    if n_obs < 1:
        raise ValueError("default_lags needs a positive length")
    return int(np.floor(4.0 * (n_obs / 100.0) ** (2.0 / 9.0)))


def _terms(det: str) -> int:
    """Deterministic columns of case det; an unknown case is refused."""
    try:
        return DET_TERMS[det]
    except KeyError:
        raise ValueError(f"unknown deterministic case {det!r}") from None


def _check_series(y, det: str, what: str) -> np.ndarray:
    _terms(det)
    y = np.ravel(np.asarray(y, dtype=float))
    if not np.all(np.isfinite(y)):
        raise ValueError("unit-root tests need a contiguous series with no missing values")
    if y.size:
        peak = np.abs(y).max()
        if _extreme(peak, y.size):
            raise ValueError(_magnitude_message(what, "the series", peak))
        if np.all(y == y[0]):
            raise ValueError(f"{what}: the series is constant")
    if _max_feasible_lags(y.size, det) < 0:
        raise ValueError(f"{what}: series too short (T={y.size}) for det={det!r}")
    return y


def _extreme(peak, lengths):
    """Whether runs whose largest |value| is peak are below sqrt(tiny) or, times
    2 sqrt(length), above sqrt(max): their fits would be rounding noise or overflow.
    The factor 2 bounds the first differences, which reach twice the peak."""
    return (peak < SQUARE_RANGE[0]) | (2.0 * peak * np.sqrt(lengths) > SQUARE_RANGE[1])


def _magnitude_message(what: str, label, peak: float) -> str:
    return f"{what}: {label} has values of magnitude {peak:.1e}, whose squares leave the normal float range"


def _noise_floor(dY, rows) -> np.ndarray:
    """PERFECT_FIT times the RMS of each run's differences, a row of dY zero past its own rows."""
    return PERFECT_FIT * np.sqrt((dY * dY).sum(axis=-1) / rows)


def _unfit(tau, s, floor) -> np.ndarray:
    """Which Dickey-Fuller fits are rounding noise: a regression standard error s at or below
    the run's floor (`_noise_floor`), or a tau that is not finite, from a singular design."""
    return ~(s > floor) | ~np.isfinite(tau)


def _unfit_message(what: str, label, s: float, floor: float) -> str:
    if s <= floor:
        return f"{what}: perfect fit for {label} (regression standard error {s:.3g})"
    return f"{what}: singular Dickey-Fuller design for {label}"


def _max_feasible_lags(T: int, det: str, min_df: int = 2) -> int:
    # regression rows = T - 1 - p, parameters = p + 1 + det terms
    return (T - 1 - min_df - _terms(det) - 1) // 2


def _shortest_run(det: str) -> int:
    """Smallest T with _max_feasible_lags(T, det) >= 0: a lag-0 regression."""
    return _terms(det) + 4


def _ips_lag_cap(T: int, det: str) -> int:
    """Largest lag the moment table holds at grid length T.

    Three residual degrees of freedom keep the t variance finite.
    """
    return min(IPS_MAX_LAG, _max_feasible_lags(T, det, min_df=3))


def _df_regression(y: np.ndarray, det: str, lags: int, lengths=None):
    """Dickey-Fuller regressions of every series on y's last axis, one stacked solve.

    The first difference over rows = T - 1 - lags is regressed on the lagged
    level, the `lags` lagged differences (most recent first), then the
    deterministic columns of `det`.  With lengths (of y's leading shape), the
    series are zero-padded at the end to T, each with rows = length - 1 - lags
    of its own; the padded rows of the design and the difference are zeroed,
    so they add exact zeros to every sum and leave residuals of exactly 0.
    X'X is factorized once, against [X'dy | e0]; the e0 column gives inv(X'X)[0, 0].
    A series whose X'X is exactly singular gets NaN throughout and leaves the
    others as they are; one whose inv(X'X)[0, 0] rounds below zero gets a NaN
    tau.  Returns (tau, se_rho, s, residuals, rows): the level coefficient's t,
    its standard error and the regression standard error, each of y's leading
    shape, residuals (..., T - 1 - lags), and rows (per series with lengths).
    """
    T = y.shape[-1]
    rows = T - 1 - lags
    dy = np.diff(y, axis=-1)
    X = np.empty(y.shape[:-1] + (rows, 1 + lags + DET_TERMS[det]))
    X[..., 0] = y[..., lags:-1]
    for j in range(1, lags + 1):
        X[..., j] = dy[..., lags - j : T - 1 - j]
    if det in ("c", "ct"):
        X[..., lags + 1] = 1.0
    if det == "ct":
        X[..., lags + 2] = np.arange(rows)
    dy = dy[..., lags:]
    if lengths is not None:
        rows = np.asarray(lengths) - 1 - lags
        if rows.min() < dy.shape[-1]:  # zeroed in place; a batch with no padding is untouched
            padded = np.arange(dy.shape[-1]) >= rows[..., None]
            X[padded] = dy[padded] = 0.0
    Xt = np.swapaxes(X, -1, -2)
    rhs = np.zeros(Xt.shape[:-1] + (2,))  # [X'dy | e0]
    rhs[..., :1], rhs[..., 0, 1] = Xt @ dy[..., None], 1.0
    XtX = Xt @ X
    try:
        sol = np.linalg.solve(XtX, rhs)
    except np.linalg.LinAlgError:  # a stacked solve refuses all: solve one at a time
        sol = np.full(rhs.shape, np.nan)
        for i in np.ndindex(XtX.shape[:-2]):
            with suppress(np.linalg.LinAlgError):
                sol[i] = np.linalg.solve(XtX[i], rhs[i])
    resid = dy - (X @ sol[..., :1])[..., 0]
    s2 = (resid * resid).sum(axis=-1) / (rows - X.shape[-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        se = np.sqrt(s2 * sol[..., 0, 1])
        return sol[..., 0, 0] / se, se, np.sqrt(s2), resid, rows


def adf_test(y, det: str = "c", lags: int | None = None) -> UnitRootResult:
    """Augmented Dickey-Fuller test.

    Parameters
    ----------
    y : array_like
        Contiguous series in levels (or differences, caller's choice).
    det : {"n", "c", "ct"}
        Deterministic terms: none, intercept, intercept and trend.
    lags : int, optional
        Augmentation lags.  Default applies the T-based rule, capped so the
        regression keeps at least two residual degrees of freedom.

    Returns
    -------
    UnitRootResult
        statistic is the tau on the lagged level; p-value from the
        response-surface approximation.  A fit made of rounding noise
        (perfect, or from a singular design) is refused.
    """
    y = _check_series(y, det, "adf_test")
    T = y.shape[0]
    cap = _max_feasible_lags(T, det)
    lags = min(default_lags(T), cap) if lags is None else operator.index(lags)
    if lags < 0:
        raise ValueError("lags must be nonnegative")
    if lags > cap:
        raise ValueError(f"adf_test: T={T} cannot support {lags} lags with det={det!r} (maximum {cap})")
    tau, _, s, _, rows = _df_regression(y, det, lags)
    floor = _noise_floor(np.diff(y), T - 1)
    if _unfit(tau, s, floor):
        raise ValueError(_unfit_message("adf_test", "the series", s, floor))
    return UnitRootResult(
        test="adf", statistic=float(tau), p_value=_dfc.mackinnon_p(float(tau), det), det=det,
        lags=lags, n_obs=rows,
    )


def _autocovariance(eta: np.ndarray, j: int, lengths=None) -> np.ndarray:
    """Gamma(j) = E[eta_t eta_{t-j}'] of blocks (..., T, m), each zero-padded at the
    end to T and divided by its own length (lengths, of eta's leading shape; default T)."""
    T = eta.shape[-2]
    n = T if lengths is None else np.asarray(lengths)[..., None, None]
    return np.swapaxes(eta[..., j:, :], -1, -2) @ eta[..., : T - j, :] / n


def long_run_covariances(eta: np.ndarray, bandwidth, lengths=None) -> tuple:
    """Two-sided and one-sided Bartlett kernel covariances of stacked blocks.

    Parameters
    ----------
    eta : ndarray, shape (..., T, m) or (T,)
        Stationary residual blocks stacked on leading axes; a vector is one
        block with m = 1.
    bandwidth : int or int array of eta's leading shape
        Kernel truncation M per block; weights are 1 - j/(M+1).
    lengths : int array of eta's leading shape, optional
        Each block's own length, for blocks zero-padded at the end to T;
        None means every block has T rows.

    Returns
    -------
    (omega, lmbda) : two arrays of shape (..., m, m)
        omega is the symmetric two-sided estimate, lmbda the one-sided sum
        over lags 0..M (not symmetric).  Autocovariances use the block's
        length as divisor, and omega == lmbda + lmbda' - Gamma(0) holds
        exactly.  Lags beyond a block's own M get weight 0 and padded rows
        add exact zeros, so each block equals its unpadded batch of one up
        to summation order.
    """
    eta = np.asarray(eta, dtype=float)
    eta = eta[:, None] if eta.ndim == 1 else eta
    rows = eta.shape[-2] if lengths is None else np.asarray(lengths)[..., None, None]
    M, rows = np.broadcast_arrays(np.asarray(bandwidth)[..., None, None], rows)
    if np.any(M < 0):
        raise ValueError("bandwidth must be nonnegative")
    over = M > rows - 2
    if np.any(over):
        raise ValueError(f"bandwidth {M[over][0]} too large for {rows[over][0]} rows")
    omega = lmbda = _autocovariance(eta, 0, lengths)
    for j in range(1, int(M.max()) + 1):
        w = np.maximum(1.0 - j / (M + 1.0), 0.0)
        gamma = _autocovariance(eta, j, lengths)
        omega = omega + w * (gamma + np.swapaxes(gamma, -1, -2))
        lmbda = lmbda + w * gamma
    return omega, lmbda


def neweywest_bandwidth(u: np.ndarray, lengths=None):
    """Automatic Bartlett bandwidth (Newey-West 1994 plug-in) of the series on u's last axis.

    Each series of length T (its entry of lengths, of u's leading shape, when
    the series are zero-padded at the end; else u's last axis) uses
    n = min(floor(4 (T/100)^(2/9)), T-2) autocovariances in the pilot step
    and gets floor(1.1447 ((s1/s0)^2 T)^(1/3)) clamped to [0, T-2]: an int
    for a vector, an int array of u's leading shape for stacked series.
    Below four rows a series gets 0, the no-correction limit; empty, an error.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    T = np.broadcast_to(u.shape[-1] if lengths is None else lengths, u.shape[:-1])
    if np.any(T < 1):
        raise ValueError("neweywest_bandwidth needs nonempty series")
    n = _by_length(lambda t: min(default_lags(t), t - 2), T.ravel()).reshape(T.shape)
    x = u[..., None]
    # pilot lags past a series' own n add exact zeros to both sums
    sig = [_autocovariance(x, 0, T)[..., 0, 0]] + [
        np.where(j <= n, _autocovariance(x, j, T)[..., 0, 0], 0.0) for j in range(1, int(n.max()) + 1)
    ]
    s0 = sig[0] + 2.0 * sum(sig[1:])
    s1 = 2.0 * sum((j * sig[j] for j in range(1, len(sig))), np.zeros(T.shape))
    # Python floats for the last step: numpy's power can differ in the last
    # bit, and the floor (int() of a nonnegative value) can make that another M.
    M = [0 if a <= 0 or t < 4 else min(int(1.1447 * ((b / a) ** 2 * t) ** (1.0 / 3.0)), t - 2)
         for a, b, t in zip(np.ravel(s0).tolist(), np.ravel(s1).tolist(), T.ravel().tolist())]
    return M[0] if u.ndim == 1 else np.reshape(M, u.shape[:-1])


def pp_test(y, det: str = "c", bandwidth: int | None = None) -> UnitRootResult:
    """Phillips-Perron Z-tau test, a batch of one.

    The statistic corrects the unaugmented Dickey-Fuller tau with the
    Bartlett long-run variance f0 of its residuals:

        Z = tau * sqrt(g0/f0) - T (f0 - g0) se(rho) / (2 sqrt(f0) s)

    where g0 is the residual variance with divisor T.  At bandwidth 0,
    f0 == g0 and Z reduces to tau exactly.  bandwidth=None applies the
    automatic rule to the residuals, which gives 0 below four of them.
    """
    y = _check_series(y, det, "pp_test")
    T = y.shape[0]
    kept = _Kept(["pp_test"], [None], np.zeros(1, int), np.array([T]), np.array(["the series"], object))
    floor = _noise_floor(np.diff(y)[None], T - 1)
    z, bw = _pp_runs(kept, bandwidth, lambda: kept.unfit(*_df_regression(y[None], det, 0)[:4], floor, "pp_test"))
    if kept.out[0] is not None:
        raise kept.out[0]
    return UnitRootResult(
        test="pp", statistic=float(z[0]), p_value=_dfc.mackinnon_p(float(z[0]), det), det=det,
        lags=0, n_obs=T - 1, bandwidth=bw[0],
    )


def _pp_runs(kept, bandwidth: int | None, fit) -> tuple:
    """Phillips-Perron Z and bandwidth of each run kept (a `_Kept`) that no check refuses.  A
    fixed bandwidth is checked against every run before fit() gives the runs' lag-0 fits with
    residuals (as `Runs.fit`, which refuses rounding noise), whose residuals take one bandwidth
    call and one kernel call.  Each refusal names pp_test and takes its series out."""
    if bandwidth is not None:
        bandwidth = operator.index(bandwidth)
        kept.refuse(np.full(kept.idx.size, bandwidth < 0), "bandwidth must be nonnegative")
        kept.refuse(bandwidth > kept.lengths - 3,
                    lambda j: f"pp_test: bandwidth {bandwidth} too large for {kept.lengths[j] - 1} rows")
    if not kept:
        return np.zeros(0), []
    tau, se_rho, s, resid, _ = fit()
    if not kept:
        return np.zeros(0), []
    rows = kept.lengths - 1
    M = neweywest_bandwidth(resid, rows) if bandwidth is None else np.full(rows.size, bandwidth)
    gamma0 = _autocovariance(resid[..., None], 0, rows)[..., 0, 0]
    f0 = long_run_covariances(resid[..., None], M, rows)[0][..., 0, 0]
    keep = kept.refuse(f0 <= 0, "pp_test: nonpositive long-run variance")
    tau, se_rho, s, rows, gamma0, f0, M = (a[keep] for a in (tau, se_rho, s, rows, gamma0, f0, M))
    z = tau * np.sqrt(gamma0 / f0) - rows * (f0 - gamma0) * se_rho / (2.0 * np.sqrt(f0) * s)
    return z, M.tolist()


def fisher_combine(p_values) -> tuple:
    """Combine independent p-values: chi2 = -2 sum log p, df = 2N.

    p-values are floored at P_FLOOR so a hard zero cannot produce an
    infinite statistic.  Returns (statistic, df, p).
    """
    p = np.ravel(np.asarray(p_values, dtype=float))
    if p.size == 0:
        raise ValueError("fisher_combine needs at least one p-value")
    if np.any(~np.isfinite(p)) or np.any(p > 1):
        raise ValueError("p-values must be finite and at most 1")
    if np.any(p <= 0):
        warnings.warn(
            f"fisher_combine: p-value(s) at or below zero clamped to {P_FLOOR:g}",
            PanelWarning,
            stacklevel=2,
        )
    stat = -2.0 * float(np.log(np.clip(p, P_FLOOR, 1.0)).sum())
    df = 2 * p.size
    return stat, df, chdtrc(df, stat)


class _Kept:
    """The runs a panel test keeps of the series of a `Runs` chunk still live, series after
    series: their rows in the layout (idx), lengths, entity labels and series (owner).  out
    holds each series' outcome: None while it is live, then its result or the ValueError
    that refuses it; what names each series' test, as "fisher_adf(name)"."""

    def __init__(self, what, out, idx, lengths, labels, owner=None):
        self.what, self.out = what, out
        self.idx, self.lengths, self.labels = idx, lengths, labels
        self.owner = np.zeros(idx.size, int) if owner is None else owner

    def __bool__(self) -> bool:
        return bool(self.idx.size)

    def what_of(self, j: int) -> str:
        return self.what[self.owner[j]]

    def refuse(self, bad, message) -> np.ndarray:
        """Refuse each series with a bad run by a ValueError with message, a str or
        message(j) of j its first bad run, and take its runs out; returns the mask of the
        runs left."""
        bad = np.flatnonzero(bad)
        series, first = np.unique(self.owner[bad], return_index=True)
        for k, j in zip(series.tolist(), bad[first].tolist()):
            self.out[k] = ValueError(message if isinstance(message, str) else message(j))
        return self._take_live()

    def each(self, step) -> np.ndarray:
        """Each live series' outcome step(runs), runs the slice of its runs, or the
        ValueError that step raised; a step returning None leaves the series live.  Returns
        the mask of the runs left."""
        cuts = [0, *(np.flatnonzero(np.diff(self.owner)) + 1).tolist(), self.owner.size]
        for a, b in zip(cuts, cuts[1:]):
            if b > a:
                try:
                    self.out[self.owner[a]] = step(slice(a, b))
                except ValueError as exc:  # kept without its frames, which hold the chunk's arrays
                    self.out[self.owner[a]] = exc.with_traceback(None)
        return self._take_live()

    def unfit(self, tau, se_rho, s, resid, floor, what: str | None = None) -> tuple:
        """Refuse each series with a fit that is rounding noise (`_unfit` against each run's
        floor), naming the entity after what, or by default the series' test; returns the
        runs left's tau, se_rho, s and residuals (None stays None), and the mask of those runs."""
        keep = self.refuse(_unfit(tau, s, floor),
                           lambda j: _unfit_message(what or self.what_of(j), self.labels[j], s[j], floor[j]))
        return tau[keep], se_rho[keep], s[keep], None if resid is None else resid[keep], keep

    def _take_live(self) -> np.ndarray:
        keep = np.array([out is None for out in self.out], bool)[self.owner]
        self.idx, self.lengths, self.labels, self.owner = (
            self.idx[keep], self.lengths[keep], self.labels[keep], self.owner[keep])
        return keep


class Runs:
    """A chunk of series on one grid, laid out together for their panel tests.

    The rows of the series are stacked series after series, and each row's longest
    contiguous run is found in one pass, with no warning (`data.longest_runs`), and held in
    one array zero-padded at the end to the chunk's longest run (`data.pad_runs`).  One table
    holds the runs' Dickey-Fuller fits under det, each (run, lag) fitted once.  The panel
    tests take a Runs and return one outcome per series, in order."""

    def __init__(self, series, det: str = "c"):
        self.series = tuple(series)
        _terms(det)
        if not self.series:
            raise ValueError("Runs needs at least one series")
        grid = self.series[0]
        if any(s.entities != grid.entities or s.periods != grid.periods for s in self.series):
            raise ValueError("Runs: the series are not on one entity-period grid")
        self.n = len(grid.entities)
        values = np.concatenate([s.values for s in self.series])
        ent, col = np.nonzero(np.isfinite(values))
        flat = values[ent, col]
        runs, lengths = contiguous_run(ent, np.asarray(grid.periods)[col])
        starts, self.lengths, self.constant = longest_runs(grid.entities * len(self.series), ent, runs,
                                                           lengths, flat)
        self.Y = pad_runs(flat, starts, self.lengths)[0]
        self.peak = np.abs(self.Y).max(axis=1, initial=0.0)
        dY = np.diff(self.Y)
        dY[np.arange(dY.shape[1]) >= self.lengths[:, None] - 1] = 0.0
        with np.errstate(over="ignore"):  # a run whose squares overflow is refused before its floor is read
            self.floor = _noise_floor(dY, np.maximum(self.lengths - 1, 1))
        self.det, self.fits = det, {}

    def usable(self, min_len: int, test: str) -> _Kept:
        """The runs `test` keeps of each series, after its drop warnings; a series left with
        fewer than two, or with a run whose squares leave the normal range, is refused."""
        what, out, idx, labels = [], [], [], []
        entities = np.asarray(self.series[0].entities, dtype=object)
        for k, series in enumerate(self.series):
            what.append(f"{test}({series.name})")
            rows = slice(k * self.n, (k + 1) * self.n)
            keep = _drop_runs(series.entities, self.lengths[rows], self.constant[rows], min_len, what[k],
                              (f"below {min_len} contiguous observations", "constant over their longest run"))
            if keep.sum() < 2:
                out.append(ValueError(f"{what[k]}: fewer than two usable entities"))
            else:
                out.append(None)
                idx.append(k * self.n + np.flatnonzero(keep))
                labels.append(entities[keep])
        idx = np.concatenate(idx) if idx else np.zeros(0, int)
        kept = _Kept(what, out, idx, self.lengths[idx], np.concatenate(labels) if labels else entities[:0],
                     idx // max(self.n, 1))
        peak = self.peak[idx]
        kept.refuse(_extreme(peak, kept.lengths),
                    lambda j: _magnitude_message(kept.what_of(j), kept.labels[j], peak[j]))
        return kept

    def differences(self, idx) -> np.ndarray:
        """First differences of runs idx, each zero past its own, formed anew on each call."""
        dY = np.diff(self.Y[idx, : self.lengths[idx].max()])
        return np.where(np.arange(dY.shape[1]) < self.lengths[idx, None] - 1, dY, 0.0)

    def fit(self, kept: _Kept, lags_pe, resid: bool = False, what: str | None = None) -> tuple:
        """tau, se_rho and s of kept's runs at their lags; a lag's runs not in the table take one
        padded _df_regression call first, over the chunk.  With resid, all are refitted for their
        residuals (padded), fourth.  A fit that is rounding noise refuses its series
        (`_Kept.unfit`); the last item is the mask of the runs left."""
        idx = kept.idx
        n = self.lengths.size
        stats = np.empty((idx.size, 3))
        res = np.zeros((idx.size, (kept.lengths - 1 - lags_pe).max())) if resid else None
        for p in np.unique(lags_pe).tolist():
            at = np.flatnonzero(lags_pe == p)
            done, table = self.fits.setdefault(p, (np.zeros(n, bool), np.zeros((n, 3))))
            new = idx[at] if resid else idx[at][~done[idx[at]]]
            if new.size:
                fit = _df_regression(self.Y[new, : self.lengths[new].max()], self.det, p, self.lengths[new])
                table[new], done[new] = np.transpose(fit[:3]), True
                if resid:
                    res[at, : fit[3].shape[1]] = fit[3]
            stats[at] = table[idx[at]]
        return kept.unfit(*stats.T, res, self.floor[idx], what)


def _entity_lags(T: int, det: str, lags: int | None, min_df: int = 2) -> int:
    cap = _max_feasible_lags(T, det, min_df=min_df)
    p = default_lags(T) if lags is None else operator.index(lags)
    return max(0, min(p, cap))


def _by_length(rule, lengths) -> np.ndarray:
    """rule(T) of each run's length T, one row per run; once per distinct T, first seen first."""
    distinct, index = _first_seen(lengths)
    return np.array([rule(T) for T in distinct.tolist()])[index]


def _fisher(test: str, det: str, kept: _Kept, stat_pe, extra_pe):
    """Each live series' Fisher combination of its entities' response-surface p-values,
    all from one mackinnon_p call, as its outcome."""
    if not kept:
        return
    p_pe = _dfc.mackinnon_p(stat_pe, det)
    rows = list(zip(kept.labels.tolist(), np.asarray(stat_pe).tolist(), p_pe.tolist(), extra_pe))

    def combine(runs):
        stat, df, p = fisher_combine(p_pe[runs])
        return UnitRootResult(
            test=test, statistic=stat, p_value=p, det=det,
            lags=None, n_obs=int(kept.lengths[runs].sum()), n_entities=len(rows[runs]), df=df,
            per_entity=tuple(rows[runs]),
        )

    kept.each(combine)


def fisher_adf(runs: Runs, lags: int | None = None) -> list:
    """Fisher combination of per-entity ADF p-values, one outcome per series of runs."""
    det = runs.det
    kept = runs.usable(_shortest_run(det), "fisher_adf")
    if kept:
        lags_pe = _by_length(lambda T: _entity_lags(T, det, lags), kept.lengths)
        tau, _, _, _, keep = runs.fit(kept, lags_pe)
        _fisher("fisher-adf", det, kept, tau, lags_pe[keep].tolist())
    return kept.out


def fisher_pp(runs: Runs, bandwidth: int | None = None) -> list:
    """Fisher combination of per-entity Phillips-Perron p-values, one outcome per series of runs."""
    kept = runs.usable(_shortest_run(runs.det), "fisher_pp")
    z, bw = _pp_runs(kept, bandwidth,
                     lambda: runs.fit(kept, np.zeros(kept.idx.size, int), resid=True, what="pp_test"))
    _fisher("fisher-pp", runs.det, kept, z, bw)
    return kept.out


def _ips_moments(T: int, p: int, det: str) -> tuple:
    """(mean, variance, usable lag) of the null t-statistic, interpolated in T.

    T is at least IPS_T_GRID[0], the shortest run ips_test keeps.  The lag
    is capped at what the lower bracketing grid length holds; the cap grows
    with T, so that length binds.
    """
    table = IPS_MOMENTS[det]
    grid = IPS_T_GRID
    if T > grid[-1]:
        warnings.warn(
            f"ips_test: length {T} above moment table maximum {grid[-1]}; clamped",
            PanelWarning,
            stacklevel=3,
        )
        T = grid[-1]
    hi = bisect_left(grid, T)
    lo = hi if grid[hi] == T else hi - 1
    p_eff = min(p, _ips_lag_cap(grid[lo], det))
    m_lo, v_lo = table[(grid[lo], p_eff)]
    if lo == hi:
        return m_lo, v_lo, p_eff
    m_hi, v_hi = table[(grid[hi], p_eff)]
    w = (T - grid[lo]) / (grid[hi] - grid[lo])
    return m_lo + w * (m_hi - m_lo), v_lo + w * (v_hi - v_lo), p_eff


def ips_test(runs: Runs, lags: int | None = None) -> list:
    """Standardized mean of per-entity Dickey-Fuller t-statistics, one outcome per series of runs.

    W = sqrt(N) (tbar - mean of tabulated means) / sqrt(mean of tabulated
    variances), asymptotically standard normal; p is the lower tail.  The
    moment table covers intercept and trend cases; each entity's lag is
    capped at what the table holds before the entity is fitted once; a run
    whose lag equals one already in the layout's table reads that fit.
    """
    det = runs.det
    if det not in ("c", "ct"):
        return [ValueError("ips_test supports det 'c' or 'ct' (moment table coverage)") for _ in runs.series]
    kept = runs.usable(IPS_T_GRID[0], "ips_test")
    if not kept:
        return kept.out
    means, variances, lags_pe = _by_length(
        lambda T: _ips_moments(T, _entity_lags(T, det, lags, min_df=3), det), kept.lengths
    ).T
    lags_pe = lags_pe.astype(int)
    tau, _, _, _, keep = runs.fit(kept, lags_pe)
    means, variances, lags_pe = means[keep], variances[keep], lags_pe[keep]
    rows = list(zip(kept.labels.tolist(), tau.tolist(), _dfc.mackinnon_p(tau, det).tolist(), lags_pe.tolist()))

    def standardize(runs):
        N = len(rows[runs])
        W = np.sqrt(N) * (np.mean(tau[runs]) - np.mean(means[runs])) / np.sqrt(np.mean(variances[runs]))
        return UnitRootResult(
            test="ips", statistic=float(W), p_value=ndtr(W), det=det,
            lags=None, n_obs=int(kept.lengths[runs].sum()), n_entities=N, per_entity=tuple(rows[runs]),
        )

    kept.each(standardize)
    return kept.out


def llc_test(runs: Runs, lags: int | None = None) -> list:
    """Pooled panel unit-root t-test with finite-sample bias adjustments, one outcome per series of runs.

    Per entity, the differenced series and the lagged level are each
    orthogonalized against augmentation lags and deterministic terms, scaled
    by the entity's regression standard error, and pooled into one slope.
    By Frisch-Waugh-Lovell that pair is the Dickey-Fuller fit's, so the
    pooled sums follow from each run's tau, se(rho) and s.  The pooled t is
    then centered and scaled with tabulated adjustments indexed by the
    average effective length; below the table's range the test refuses
    rather than extrapolate, before any entity is fitted.
    """
    det = runs.det
    kept = runs.usable(_shortest_run(det), "llc_test")
    if not kept:
        return kept.out
    lags_pe = _by_length(lambda T: _entity_lags(T, det, lags), kept.lengths)
    adjustment = np.empty((lags_pe.size, 3))  # per run, its series' t_tilde, mu* and sigma*

    def table(runs):
        t_tilde = float(np.mean(kept.lengths[runs] - 1 - lags_pe[runs]))
        adjustment[runs] = t_tilde, *_dfc.llc_adjustment(t_tilde, det)

    keep = kept.each(table)
    lags_pe, adjustment = lags_pe[keep], adjustment[keep]
    if not kept:
        return kept.out
    tau, se, s, _, keep = runs.fit(kept, lags_pe)
    lags_pe, adjustment = lags_pe[keep], adjustment[keep]
    rows = kept.lengths - 1 - lags_pe
    ssr = s * s * (rows - 1 - lags_pe - _terms(det))
    keep = kept.refuse(ssr <= 0, lambda j: f"{kept.what_of(j)}: degenerate entity regression")
    tau, se, s, rows, ssr, lags_pe, adjustment = (a[keep] for a in (tau, se, s, rows, ssr, lags_pe, adjustment))
    if not kept:
        return kept.out

    # Long-run over innovation standard deviation of the differences.
    # The no-trend models have mean-zero differences under their nulls,
    # so raw autocovariances apply; demeaning there biases the kernel
    # estimate down by about (K+1)/T and oversizes the test.  The trend
    # model's null leaves a per-entity drift to remove first.
    n = kept.lengths - 1
    dy = runs.differences(kept.idx)
    if det == "ct":  # a real zero difference is demeaned too
        real = np.arange(dy.shape[1]) < n[:, None]
        dy = np.where(real, dy - dy.sum(axis=1, keepdims=True) / n[:, None], 0.0)
    K = _by_length(lambda T: max(min(int(np.floor(3.21 * (T - 1) ** (1.0 / 3.0))), T - 3), 0), kept.lengths)
    lrv = long_run_covariances(dy[..., None], K, n)[0][:, 0, 0]
    keep = kept.refuse(lrv <= 0, lambda j: f"{kept.what_of(j)}: nonpositive long-run variance")
    tau, se, s, rows, ssr, lags_pe, adjustment, lrv = (
        a[keep] for a in (tau, se, s, rows, ssr, lags_pe, adjustment, lrv))

    # Entity scale: the regression error over the effective rows.  With v the
    # orthogonalized level and e the orthogonalized difference, v'v = s^2/se^2,
    # e'v = tau se v'v and e'e = SSR + tau^2 s^2; each is pooled over s2.
    s2 = ssr / rows
    vv = (s / se) ** 2 / s2
    ev_pe = tau * se * vv
    ee_pe = (ssr + (tau * s) ** 2) / s2
    s_ratio = np.sqrt(lrv / s2)

    def pool(runs):
        denom = float(vv[runs].sum())
        ev = float(ev_pe[runs].sum())
        ee = float(ee_pe[runs].sum())
        delta = ev / denom
        n_total = int(rows[runs].sum())
        sigma2_eps = (ee - delta * ev) / n_total
        std_delta = np.sqrt(sigma2_eps / denom)
        t_delta = delta / std_delta
        s_bar = float(np.mean(s_ratio[runs]))
        t_tilde, mu_star, sigma_star = adjustment[runs.start]
        N = runs.stop - runs.start
        adj = N * t_tilde * s_bar * std_delta / sigma2_eps * mu_star
        t_star = (t_delta - adj) / sigma_star
        return UnitRootResult(
            test="llc", statistic=float(t_star), p_value=ndtr(t_star),
            det=det, lags=None, n_obs=n_total, n_entities=N,
            per_entity=tuple(zip(kept.labels[runs].tolist(), [float("nan")] * N, [float("nan")] * N,
                                 lags_pe[runs].tolist())),
        )

    kept.each(pool)
    return kept.out


BATTERY_TESTS = ("fisher-pp", "fisher-adf", "ips", "llc")
BATTERY_ORDERS = ("level", "difference")
BATTERY_CELLS = 1 << 15  # most entity x period cells of the series in one battery chunk


def _chunks(battery):
    """Consecutive (name, order, series) items of battery, as many to a chunk as fit in
    BATTERY_CELLS cells of their grids; a series larger than that is a chunk of its own."""
    chunk, cells = [], 0
    for item in battery:
        if chunk and cells + item[2].values.size > BATTERY_CELLS:
            yield chunk
            chunk, cells = [], 0
        chunk.append(item)
        cells += item[2].values.size
    if chunk:
        yield chunk


def run_battery(dataset: PanelDataset, variables, det: str = "c",
                lags: int | None = None, bandwidth: int | None = None) -> BatteryResult:
    """All four panel tests on levels and first differences of each named variable.

    The series are taken in battery order (each variable's level, then its
    difference) and cut into chunks of consecutive series, as many as fit in
    BATTERY_CELLS entity x period cells.  Each chunk is laid out once (`Runs`)
    and the four public tests are called on that layout in BATTERY_TESTS order,
    each once per chunk, so each kernel runs once per chunk and each run is
    fitted once per lag: Phillips-Perron's lag-0 fits serve Fisher-ADF, whose
    fits serve IPS where the lag rules agree, and LLC.  The paper's twelve
    74 x 9 series make one chunk, three 500 x 20 series make one, and a 600 x 30
    series is a chunk of its own.  The budget bounds a chunk's transient memory:
    under tracemalloc, stacking all twelve series of a gappy 600 x 30 panel
    peaked at 16.0 MiB against 1.34 MiB one series at a time, and of a balanced
    500 x 20 panel at 9.25 MiB against 0.82 MiB, no faster.
    The tests are looked up in the module's namespace when the battery runs, so
    rebinding them there sees its calls.  A series that a test refuses
    contributes an error-marker cell (reason preserved) instead of aborting the
    battery; an unknown det is refused before the first cell.
    """
    _terms(det)
    names = tuple(variables)
    calls = ((fisher_pp, bandwidth), (fisher_adf, lags), (ips_test, lags), (llc_test, lags))
    battery = ((name, order, series) for name in names
               for order, series in (("level", dataset[name]), ("difference", first_difference(dataset[name]))))
    cells = {}
    for chunk in _chunks(battery):
        runs = Runs([series for _, _, series in chunk], det)
        outcomes = [stat(runs, option) for stat, option in calls]
        for (name, order, _), row in zip(chunk, zip(*outcomes)):
            for test, out in zip(BATTERY_TESTS, row):
                cells[(name, order, test)] = (BatteryCell(name, order, test, None, str(out))
                                              if isinstance(out, ValueError) else BatteryCell(name, order, test, out))
    return BatteryResult(variables=names, orders=BATTERY_ORDERS, tests=BATTERY_TESTS, cells=cells)
