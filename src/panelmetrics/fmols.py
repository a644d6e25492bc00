"""Pooled fully modified OLS for cointegrated panels with individual intercepts.

Each entity contributes a contiguous block of its regression sample; the
first observation of every block is consumed by differencing the regressors.
Within the aligned window the dependent is corrected for long-run
endogeneity between the cointegrating residual and regressor innovations,
and a serial-correlation bias term is subtracted from the pooled cross
products.  Kernel: Bartlett, `unitroot.long_run_covariances`, and its
bandwidth rule, each called once per block length on the stacked blocks.
Bandwidth 0 is the documented no-correction limit: both corrections are
identically zero there, so those blocks skip the kernel, and the estimator
reduces exactly to within-OLS on the aligned window.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .data import (
    ModelSpec,
    PanelDataset,
    PanelWarning,
    contiguous_run,
    longest_runs,
    regression_sample,
)
from .unitroot import _stacks, long_run_covariances, neweywest_bandwidth


@dataclass(frozen=True)
class FmolsResult:
    """Pooled fully modified estimates."""

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
    r_squared: float
    adj_r_squared: float
    long_run_scale: float
    bandwidths: dict
    residuals: np.ndarray = field(repr=False)
    demeaned_dependent: np.ndarray = field(repr=False)

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.columns.index(name)])


def _entity_blocks(sample, k: int):
    """Per-entity contiguous (years, y, X) blocks long enough to difference.

    Entities with fewer than k + 3 contiguous rows are dropped; a gap inside
    an entity keeps only its longest run.  An entity with a regressor
    constant over its block is dropped too: its long-run regressor
    covariance is singular.
    """
    starts, lengths = contiguous_run(sample.entity_ids, sample.periods)
    best, length = longest_runs(sample.entity_ids, starts, lengths, sample.n_entities)
    counts = np.bincount(sample.entity_ids, minlength=sample.n_entities)
    # changes[i] counts each column's value changes over rows 0..i
    changes = np.cumsum(np.vstack([np.zeros((1, k), bool), sample.X[1:] != sample.X[:-1]]), axis=0)
    flat = np.any(changes[best + np.maximum(length, 1) - 1] == changes[best], axis=1)
    blocks, dropped, clipped, constant = [], [], [], []
    for entity, s, ln, n_rows, is_flat in zip(sample.entities, best, length, counts, flat):
        if ln < n_rows:
            clipped.append(entity)
        sel = slice(s, s + ln)
        if ln < k + 3:
            dropped.append(entity)
        elif is_flat:
            constant.append(entity)
        else:
            blocks.append((entity, sample.periods[sel], sample.y[sel], sample.X[sel]))
    if clipped:
        warnings.warn(
            f"fmols: non-contiguous sample for {len(clipped)} entity(ies); "
            "kept each entity's longest run",
            PanelWarning,
            stacklevel=3,
        )
    if dropped:
        warnings.warn(
            f"fmols: dropped {len(dropped)} entity(ies) shorter than {k + 3} rows",
            PanelWarning,
            stacklevel=3,
        )
    if constant:
        warnings.warn(
            f"fmols: dropped {len(constant)} entity(ies) with a constant regressor: "
            + ", ".join(map(str, constant)),
            PanelWarning,
            stacklevel=3,
        )
    if not blocks:
        raise ValueError("fmols: no entity has enough contiguous rows and a varying regressor")
    return blocks


def fmols_panel(dataset: PanelDataset, spec: ModelSpec, bandwidth: int | None = None) -> FmolsResult:
    """Pooled fully modified OLS estimate of one equation.

    Parameters
    ----------
    dataset : PanelDataset
    spec : ModelSpec
        Must use individual intercepts; design columns come from the spec's
        lag structure (lagged dependent first when present).
    bandwidth : int, optional
        Fixed Bartlett bandwidth for every entity; None applies the
        automatic rule entity by entity.

    Returns
    -------
    FmolsResult
        Coefficient p-values are asymptotically normal.  R squared uses the
        within residuals over the aligned sample against the grand-centered
        total, so recovered entity intercepts count as explanatory, as in
        the within estimator.
    """
    if spec.intercept != "individual":
        raise ValueError("fmols_panel requires individual intercepts")
    if bandwidth is not None and bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")
    sample = regression_sample(dataset, spec)
    k = sample.X.shape[1]
    if k == 0:
        raise ValueError("fmols_panel needs at least one regressor")
    blocks = _entity_blocks(sample, k)

    # First pass: align, demean, difference; within moments in entity order.
    aligned = []
    sxx = np.zeros((k, k))
    sxy = np.zeros(k)
    for entity, years, y, X in blocks:
        v = X[1:] - X[:-1]
        ya, Xa, yrs = y[1:], X[1:], years[1:]
        y_dd = ya - ya.mean()
        X_dd = Xa - Xa.mean(axis=0)
        aligned.append((entity, yrs, y_dd, X_dd, v))
        sxx += X_dd.T @ X_dd
        sxy += X_dd.T @ y_dd
    b0 = np.linalg.solve(sxx, sxy)

    # Second pass: long-run corrections, one kernel call per block length.
    # Bandwidth 0 keeps the definitional branch: no corrections, scale u'u/m.
    us = [y_dd - X_dd @ b0 for _, _, y_dd, X_dd, _ in aligned]
    etas = [np.column_stack([u, a[4]]) for u, a in zip(us, aligned)]
    y_plus = [a[2] for a in aligned]
    lam_plus = np.zeros((len(aligned), k))
    scales = np.array([float(u @ u) / u.shape[0] for u in us])
    bws = np.empty(len(aligned), dtype=int)
    for m, idx, eta in _stacks(etas, map(len, etas)):
        if bandwidth is None:
            bws[idx] = neweywest_bandwidth(eta.sum(axis=-1)) if m >= 4 else 0
        else:
            bws[idx] = min(int(bandwidth), m - 2)
        kernel = bws[idx] > 0
        if not kernel.any():
            continue
        idx = np.asarray(idx)[kernel]
        omega, lmbda = long_run_covariances(eta[kernel], bws[idx])
        solve_vu = np.linalg.solve(omega[:, 1:, 1:], omega[:, 0, 1:, None])
        lam_plus[idx] = lmbda[:, 0, 1:] - (np.swapaxes(solve_vu, -1, -2) @ lmbda[:, 1:, 1:])[:, 0]
        scales[idx] = omega[:, 0, 0] - (omega[:, None, 0, 1:] @ solve_vu)[:, 0, 0]
        for i, s_vu in zip(idx, solve_vu[..., 0]):
            y_plus[i] = aligned[i][2] - aligned[i][4] @ s_vu

    sxy_plus = np.zeros(k)
    for (_, _, _, X_dd, _), yp, lp in zip(aligned, y_plus, lam_plus):
        sxy_plus += X_dd.T @ yp - X_dd.shape[0] * lp

    beta = np.linalg.solve(sxx, sxy_plus)
    omega_bar = float(np.mean(np.clip(scales, 0.0, None)))
    cov = omega_bar * np.linalg.inv(sxx)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.nan)
    p = 2.0 * ndtr(-np.abs(t))

    y_all = np.concatenate([y_dd for _, _, y_dd, _, _ in aligned])
    X_all = np.vstack([X_dd for _, _, _, X_dd, _ in aligned])
    years_all = np.concatenate([yrs for _, yrs, _, _, _ in aligned])
    y_raw = np.concatenate([blk[2][1:] for blk in blocks])
    resid = y_all - X_all @ beta
    ssr = float(resid @ resid)
    # Entity intercepts are part of the fit, so the total is grand-centered
    # (same convention as the within estimator's reported fit).
    sst = float(((y_raw - y_raw.mean()) ** 2).sum())
    n = y_all.shape[0]
    N = len(aligned)
    r2 = 1.0 - ssr / sst if sst > 0 else float("nan")
    k_all = k + N
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k_all) if n > k_all else float("nan")

    return FmolsResult(
        method="fmols",
        columns=sample.columns,
        coefficients=beta,
        std_errors=se,
        t_stats=t,
        p_values=p,
        cov=cov,
        n_obs=n,
        n_entities=N,
        periods_included=int(np.unique(years_all).size),
        r_squared=r2,
        adj_r_squared=adj,
        long_run_scale=omega_bar,
        bandwidths=dict(zip((a[0] for a in aligned), bws.tolist())),
        residuals=resid,
        demeaned_dependent=y_all,
    )
