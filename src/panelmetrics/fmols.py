"""Pooled fully modified OLS for cointegrated panels with individual intercepts.

Each entity contributes a contiguous block of its regression sample; the
first observation of every block is consumed by differencing the regressors.
The rest of the blocks, the aligned window, is one flat sample in entity
order, and the within step is the fixed-effects transform on it
(`effects._within`).  The dependent is then corrected for long-run
endogeneity between the cointegrating residual and regressor innovations,
and a serial-correlation bias term is subtracted from the pooled cross
products.  Kernel: Bartlett, `unitroot.long_run_covariances`, and its
bandwidth rule, each called once per model on the blocks zero-padded to the
longest (`data.pad_runs`).
Bandwidth 0 is the documented no-correction limit: both corrections are
identically zero there, so those blocks skip the kernel, and the estimator
reduces exactly to within-OLS on the aligned window.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from .data import (
    ModelSpec,
    PanelDataset,
    PanelWarning,
    _drop_runs,
    contiguous_run,
    longest_runs,
    pad_runs,
    regression_sample,
)
from .effects import Estimates, _r_squared, _wald, _within
from .unitroot import long_run_covariances, neweywest_bandwidth


@dataclass(frozen=True)
class FmolsResult(Estimates):
    """Pooled fully modified estimates."""

    r_squared: float
    adj_r_squared: float
    long_run_scale: float
    bandwidths: dict
    residuals: np.ndarray = field(repr=False)
    demeaned_dependent: np.ndarray = field(repr=False)


def _entity_blocks(sample, k: int):
    """Kept entities' contiguous blocks, long enough to difference.

    Entities with fewer than k + 3 contiguous rows are dropped; a gap inside
    an entity keeps only its longest run.  An entity with a regressor
    constant over its block is dropped too: its long-run regressor
    covariance is singular.  Returns the kept entities' labels, block starts
    and block lengths, in entity order.
    """
    starts, lengths = contiguous_run(sample.entity_ids, sample.periods)
    clipped = int((np.bincount(sample.entity_ids[starts]) > 1).sum())  # entities with a gap
    if clipped:
        warnings.warn(f"fmols: non-contiguous sample for {clipped} entity(ies); "
                      "kept each entity's longest run", PanelWarning, stacklevel=3)
    starts, lengths, constant = longest_runs(sample.entities, sample.entity_ids, starts, lengths, sample.X)
    keep = _drop_runs(sample.entities, lengths, constant, k + 3, "fmols",
                      (f"shorter than {k + 3} rows", "with a constant regressor"))
    if not keep.any():
        raise ValueError("fmols: no entity has enough contiguous rows and a varying regressor")
    return tuple(compress(sample.entities, keep)), starts[keep], lengths[keep]


def fmols_panel(dataset: PanelDataset, spec: ModelSpec, bandwidth: int | None = None) -> FmolsResult:
    """Pooled fully modified OLS estimate of one equation.

    Parameters
    ----------
    dataset : PanelDataset
    spec : ModelSpec
        Design columns come from the spec's lag structure (lagged dependent
        first when present); each entity gets its own intercept.
    bandwidth : int, optional
        Fixed Bartlett bandwidth for every entity, capped with a warning at
        m - 2 for a block of m aligned rows; None applies the automatic rule
        entity by entity.

    Returns
    -------
    FmolsResult
        Coefficient p-values are asymptotically normal.  R squared uses the
        within residuals over the aligned sample against the grand-centered
        total, so recovered entity intercepts count as explanatory, as in
        the within estimator.
    """
    if bandwidth is not None and operator.index(bandwidth) < 0:
        raise ValueError("bandwidth must be nonnegative")
    sample = regression_sample(dataset, spec)
    k = sample.X.shape[1]
    if k == 0:
        raise ValueError("fmols_panel needs at least one regressor")
    entities, starts, lengths = _entity_blocks(sample, k)

    # The aligned window drops each block's first row, used up by v = dX.
    N, m = len(entities), lengths - 1
    first = np.cumsum(m) - m
    rows = np.arange(m.sum()) + np.repeat(starts + 1 - first, m)
    aligned = replace(
        sample,
        entities=entities,
        entity_ids=np.repeat(np.arange(N), m),
        periods=sample.periods[rows],
        y=sample.y[rows],
        X=sample.X[rows],
    )
    y_dd, X_dd, _, _ = _within(aligned)
    v = aligned.X - sample.X[rows - 1]
    sxx = X_dd.T @ X_dd
    u = y_dd - X_dd @ np.linalg.solve(sxx, X_dd.T @ y_dd)
    # eta = [u, v] per block, zero-padded at the end to the longest block
    eta, inside = pad_runs(np.column_stack([u, v]), first, m)

    # Long-run corrections: one bandwidth call, one kernel call and one solve
    # over the padded blocks.  Bandwidth 0 keeps the definitional branch: no
    # corrections, scale u'u/m.
    scales = np.bincount(aligned.entity_ids, weights=u * u) / m
    lam_plus = np.zeros((N, k))
    correction = np.zeros(eta.shape[:2])
    if bandwidth is None:
        bws = neweywest_bandwidth(eta.sum(axis=-1), m)
    else:
        bws = np.minimum(bandwidth, m - 2)
        capped = int((bws < bandwidth).sum())
        if capped:
            warnings.warn(
                f"fmols: bandwidth {bandwidth} capped at m - 2 for {capped} entity(ies)",
                PanelWarning,
                stacklevel=2,
            )
    kernel = bws > 0
    if kernel.any():
        blocks = eta[kernel]
        omega, lmbda = long_run_covariances(blocks, bws[kernel], m[kernel])
        solve_vu = np.linalg.solve(omega[:, 1:, 1:], omega[:, 0, 1:, None])
        lam_plus[kernel] = lmbda[:, 0, 1:] - (np.swapaxes(solve_vu, -1, -2) @ lmbda[:, 1:, 1:])[:, 0]
        scales[kernel] = omega[:, 0, 0] - (omega[:, None, 0, 1:] @ solve_vu)[:, 0, 0]
        correction[kernel] = (blocks[..., 1:] @ solve_vu)[..., 0]
    y_plus = y_dd - correction[inside]

    beta = np.linalg.solve(sxx, X_dd.T @ y_plus - m @ lam_plus)
    omega_bar = float(np.mean(np.clip(scales, 0.0, None)))
    cov = omega_bar * np.linalg.inv(sxx)
    se, t, p = _wald(beta, cov)

    resid = y_dd - X_dd @ beta
    # Entity intercepts are part of the fit, so the total is grand-centered
    # (same convention as the within estimator's reported fit).
    sst = float(((aligned.y - aligned.y.mean()) ** 2).sum())
    n = aligned.n_obs
    r2, adj = _r_squared(float(resid @ resid), sst, n, k + N)

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
        periods_included=aligned.periods_included,
        r_squared=r2,
        adj_r_squared=adj,
        long_run_scale=omega_bar,
        bandwidths=dict(zip(aligned.entities, bws.tolist())),
        residuals=resid,
        demeaned_dependent=y_dd,
    )
