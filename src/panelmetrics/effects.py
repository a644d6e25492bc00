"""Pooled, fixed-effects, and random-effects panel regressions with the
Hausman specification test.

All estimators consume a RegressionSample (listwise-complete stacked rows)
and return an EffectsResult.  The random-effects transform is Swamy-Arora
with entity-specific quasi-demeaning weights, which makes the fixed-effects
estimator its exact theta -> 1 limit.  FMOLS and GMM results extend the same
`Estimates` record and take their standard errors, t and p from `_wald`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._special import chdtrc, ndtr, stdtr
from .data import PanelWarning, RegressionSample


@dataclass(frozen=True)
class Estimates:
    """Coefficients, their covariance and Wald inference from one estimator."""

    method: str
    columns: tuple
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    cov: np.ndarray
    n_obs: int
    n_entities: int
    periods_included: int

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.columns.index(name)])


@dataclass(frozen=True)
class EffectsResult(Estimates):
    """Estimates from one panel regression."""

    df_resid: int
    sigma2: float
    r_squared: float
    adj_r_squared: float
    residuals: np.ndarray = field(repr=False)
    demeaned_dependent: np.ndarray = field(repr=False)
    entity_effects: dict | None = None
    variance_components: dict | None = None

    def slope_columns(self) -> tuple:
        return tuple(c for c in self.columns if c != "const")


@dataclass(frozen=True)
class HausmanResult:
    """Fixed-versus-random contrast on the common slope coefficients."""

    statistic: float
    df: int
    p_value: float
    columns: tuple
    coefficient_gap: np.ndarray


def _entity_means(values: np.ndarray, ids: np.ndarray, n_groups: int) -> np.ndarray:
    counts = np.bincount(ids, minlength=n_groups).astype(float)
    if values.ndim == 1:
        return np.bincount(ids, weights=values, minlength=n_groups) / counts
    out = np.empty((n_groups, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(ids, weights=values[:, j], minlength=n_groups) / counts
    return out


def _solve_ols(X: np.ndarray, y: np.ndarray, what: str, columns) -> np.ndarray:
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        # left to right, a column is dependent when it does not raise the rank of those kept
        kept, bad = [], []
        for j in range(X.shape[1]):
            (kept if np.linalg.matrix_rank(X[:, kept + [j]]) > len(kept) else bad).append(j)
        names = ", ".join(str(columns[j]) for j in bad)
        raise ValueError(f"{what}: collinear design, dependent column(s): {names}")
    return beta


def _wald(beta: np.ndarray, cov: np.ndarray, df: int | None = None) -> tuple:
    """(se, t, two-sided p) of beta under cov: Student t with df degrees of freedom,
    normal when df is None; t and p are NaN where the variance is not positive."""
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.nan)
    p = 2.0 * (ndtr(-np.abs(t)) if df is None else stdtr(df, -np.abs(t)))
    return se, t, p


def _r_squared(ssr: float, sst: float, n: int, k_all: int) -> tuple:
    """(R squared, adjusted R squared) of k_all parameters on n rows; NaN if sst <= 0 or n <= k_all."""
    r2 = 1.0 - ssr / sst if sst > 0 else float("nan")
    return r2, (1.0 - (1.0 - r2) * (n - 1) / (n - k_all) if n > k_all else float("nan"))


def _finish(method, columns, X, y, beta, df_resid, sst, sample, demeaned_dep,
            entity_effects=None, variance_components=None, absorbed=0):
    resid = y - X @ beta
    ssr = float(resid @ resid)
    if df_resid < 1:
        raise ValueError(f"{method}: nonpositive residual degrees of freedom")
    sigma2 = ssr / df_resid
    cov = sigma2 * np.linalg.pinv(X.T @ X)
    se, t, p = _wald(beta, cov, df_resid)
    n = y.shape[0]
    r2, adj = _r_squared(ssr, sst, n, X.shape[1] + absorbed)
    return EffectsResult(
        method=method,
        columns=tuple(columns),
        coefficients=beta,
        std_errors=se,
        t_stats=t,
        p_values=p,
        cov=cov,
        n_obs=n,
        n_entities=sample.n_entities,
        periods_included=sample.periods_included,
        df_resid=df_resid,
        sigma2=sigma2,
        r_squared=r2,
        adj_r_squared=adj,
        residuals=resid,
        demeaned_dependent=demeaned_dep,
        entity_effects=entity_effects,
        variance_components=variance_components,
    )


def pooled_ols(sample: RegressionSample) -> EffectsResult:
    """OLS with a single common intercept, classical covariance."""
    n, k = sample.X.shape
    X = np.column_stack([np.ones(n), sample.X])
    if n < k + 2:
        raise ValueError("pooled_ols: need at least k + 2 observations")
    beta = _solve_ols(X, sample.y, "pooled_ols", ("const",) + sample.columns)
    sst = float(((sample.y - sample.y.mean()) ** 2).sum())
    return _finish(
        "pooled", ("const",) + sample.columns, X, sample.y, beta,
        df_resid=n - X.shape[1], sst=sst, sample=sample, demeaned_dep=sample.y - sample.y.mean(),
    )


def _within(sample: RegressionSample):
    ids, N = sample.entity_ids, sample.n_entities
    ybar = _entity_means(sample.y, ids, N)
    xbar = _entity_means(sample.X, ids, N)
    return sample.y - ybar[ids], sample.X - xbar[ids], ybar, xbar


def fixed_effects(sample: RegressionSample) -> EffectsResult:
    """Within estimator with recovered entity intercepts.

    Degrees of freedom charge one parameter per entity; the reported R
    squared is the least-squares-dummy-variable one (entity intercepts count
    as explanatory), so it is comparable with a pooled fit of the same
    equation.
    """
    n, k = sample.X.shape
    N = sample.n_entities
    if n - N - k < 1:
        raise ValueError("fixed_effects: need n - n_entities - k >= 1")
    y_dd, X_dd, ybar, xbar = _within(sample)
    beta = _solve_ols(X_dd, y_dd, "fixed_effects", sample.columns)
    alpha = ybar - xbar @ beta
    effects = {e: float(a) for e, a in zip(sample.entities, alpha)}
    sst = float(((sample.y - sample.y.mean()) ** 2).sum())
    return _finish(
        "fixed", sample.columns, X_dd, y_dd, beta,
        df_resid=n - N - k, sst=sst, sample=sample,
        demeaned_dep=y_dd, entity_effects=effects, absorbed=N,
    )


def random_effects(sample: RegressionSample, theta_override: float | None = None) -> EffectsResult:
    """Swamy-Arora random effects via quasi-demeaning.

    Variance components come from the within and between regressions; the
    idiosyncratic-to-total ratio sets an entity-specific theta through the
    entity's own length, using the harmonic mean length in the between
    moment.  theta_override forces a common theta (1.0 reproduces the
    fixed-effects slopes exactly; the zero intercept column is dropped).
    """
    n, k = sample.X.shape
    N = sample.n_entities
    ids = sample.entity_ids
    counts = np.bincount(ids, minlength=N).astype(float)
    if N < 2:
        raise ValueError("random_effects: need at least two entities")
    if n - N - k < 1 or N < k + 2:
        raise ValueError("random_effects: insufficient observations for variance components")

    y_dd, X_dd, ybar, xbar = _within(sample)
    beta_w = _solve_ols(X_dd, y_dd, "random_effects (within step)", sample.columns)
    ssr_w = float(((y_dd - X_dd @ beta_w) ** 2).sum())
    sigma2_e = ssr_w / (n - N - k)

    Xb = np.column_stack([np.ones(N), xbar])
    beta_b = _solve_ols(Xb, ybar, "random_effects (between step)", ("const",) + sample.columns)
    ssr_b = float(((ybar - Xb @ beta_b) ** 2).sum())
    sigma2_b = ssr_b / (N - k - 1)

    t_harm = N / float((1.0 / counts).sum())
    sigma2_u = max(0.0, sigma2_b - sigma2_e / t_harm)
    if sigma2_u == 0.0:
        warnings.warn(
            "random_effects: between variance at or below the within floor; "
            "entity component clamped to zero (theta = 0, pooled limit)",
            PanelWarning,
            stacklevel=2,
        )

    if theta_override is not None:
        theta = np.full(N, float(theta_override))
    else:
        theta = 1.0 - np.sqrt(sigma2_e / (counts * sigma2_u + sigma2_e))

    y_q = sample.y - theta[ids] * ybar[ids]
    X_q = sample.X - theta[ids][:, None] * xbar[ids]
    const = 1.0 - theta[ids]
    components = {
        "sigma2_e": float(sigma2_e),
        "sigma2_u": float(sigma2_u),
        "t_bar_harmonic": float(t_harm),
        "theta": {e: float(t) for e, t in zip(sample.entities, theta)},
        "theta_min": float(theta.min()),
        "theta_max": float(theta.max()),
        "theta_mean": float(theta.mean()),
    }

    # theta == 1 zeroes the quasi-demeaned intercept; keeping an all-zero
    # column would leave the normal equations singular, so drop it.
    if np.max(np.abs(const)) < 1e-12:
        X_full, columns = X_q, sample.columns
    else:
        X_full, columns = np.column_stack([const, X_q]), ("const",) + sample.columns
    beta = _solve_ols(X_full, y_q, "random_effects", columns)
    sst = float(((y_q - y_q.mean()) ** 2).sum())
    return _finish(
        "random", columns, X_full, y_q, beta,
        df_resid=n - X_full.shape[1], sst=sst, sample=sample,
        demeaned_dep=y_q - y_q.mean(), variance_components=components,
    )


def hausman(fe: EffectsResult, re: EffectsResult) -> HausmanResult:
    """Contrast fixed against random effects on shared slope coefficients.

    The covariance gap V_fe - V_re is symmetrized and eigendecomposed;
    negative eigenvalues (a finite-sample artifact) are projected out and
    the statistic uses the pseudo-inverse on the positive subspace, so
    H >= 0 always, with df equal to the retained rank.
    """
    if fe.method != "fixed" or re.method != "random":
        raise ValueError("hausman expects (fixed_effects result, random_effects result)")
    if fe.slope_columns() != re.slope_columns():
        raise ValueError(
            f"hausman: regressor sets differ ({fe.slope_columns()} vs {re.slope_columns()})"
        )
    common = list(fe.slope_columns())
    fi = [fe.columns.index(c) for c in common]
    ri = [re.columns.index(c) for c in common]
    q = fe.coefficients[fi] - re.coefficients[ri]
    dV = fe.cov[np.ix_(fi, fi)] - re.cov[np.ix_(ri, ri)]
    dV = 0.5 * (dV + dV.T)

    eigval, eigvec = np.linalg.eigh(dV)
    tol = np.max(np.abs(eigval)) * 1e-10 if eigval.size else 0.0
    keep = eigval > tol
    rank = int(keep.sum())
    if rank < len(common):
        warnings.warn(
            "hausman: covariance gap not positive definite; "
            f"statistic restricted to a rank-{rank} subspace",
            PanelWarning,
            stacklevel=2,
        )
    if rank == 0:
        return HausmanResult(0.0, 0, float("nan"), tuple(common), q)
    inv_vals = np.zeros_like(eigval)
    inv_vals[keep] = 1.0 / eigval[keep]
    pinv = (eigvec * inv_vals) @ eigvec.T
    H = float(q @ pinv @ q)
    return HausmanResult(H, rank, chdtrc(rank, H), tuple(common), q)
