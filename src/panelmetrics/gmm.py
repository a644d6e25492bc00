"""First-difference GMM for dynamic panels.

The levels equation with entity effects is differenced to remove the
effects; the differenced lagged dependent is instrumented with earlier
levels of the dependent (optionally depth-limited or collapsed), while
differenced exogenous regressors instrument themselves.  One-step weighting
uses the tridiagonal second-difference form implied by iid level errors;
two-step reweights with the clustered outer product of one-step moments.
Overidentification is summarized by the J statistic at the two-step
weighting, which equals the minimized criterion by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, ndtr

from .data import ModelSpec, PanelDataset, PanelWarning, contiguous_run, regression_sample


@dataclass(frozen=True)
class DiffSample:
    """Per-entity differenced equation rows.

    blocks hold (entity, years, dy, dX); a year is usable when the level
    equation is complete at it and at the preceding year.
    """

    columns: tuple
    blocks: tuple
    spec: ModelSpec

    @property
    def n_obs(self) -> int:
        return sum(b[2].shape[0] for b in self.blocks)

    @property
    def n_entities(self) -> int:
        return len(self.blocks)

    @property
    def periods_included(self) -> int:
        years = np.concatenate([b[1] for b in self.blocks])
        return int(np.unique(years).size)


@dataclass(frozen=True)
class InstrumentMatrix:
    """Instrument blocks aligned with a DiffSample.

    columns are labels; uncollapsed level instruments are keyed by
    (equation year, source year), collapsed ones by lag distance.  Cells
    with no usable level are zero.  Columns that would be entirely zero
    are dropped (recorded in dropped_columns).
    """

    columns: tuple
    blocks: tuple  # (entity, years, Z_i) aligned with the sample blocks
    collapse: bool
    max_depth: int | None
    dropped_columns: tuple = ()

    @property
    def n_instruments(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class GmmResult:
    """Dynamic panel GMM estimates."""

    method: str
    step: str
    columns: tuple
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    cov: np.ndarray
    n_obs: int
    n_entities: int
    periods_included: int
    instrument_count: int
    j_stat: float
    j_df: int
    j_p: float | None
    one_step_coefficients: np.ndarray
    weighting: np.ndarray = field(repr=False)

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.columns.index(name)])


def _follows_previous(entity_ids: np.ndarray, years: np.ndarray) -> np.ndarray:
    """Rows whose calendar predecessor is the row just before them."""
    starts, _ = contiguous_run(entity_ids, years)
    follows = np.ones(years.shape[0], dtype=bool)
    follows[starts] = False
    return follows


def differenced_sample(dataset: PanelDataset, spec: ModelSpec) -> DiffSample:
    """First-differenced rows of an equation, entity by entity.

    A differenced row at year t requires complete level rows at t and t-1.
    Entities contributing no differenced rows are dropped with a warning.
    """
    sample = regression_sample(dataset, spec)
    cur = np.flatnonzero(_follows_previous(sample.entity_ids, sample.periods))
    years = sample.periods[cur]
    dy = sample.y[cur] - sample.y[cur - 1]
    dX = sample.X[cur] - sample.X[cur - 1]
    bounds = np.searchsorted(sample.entity_ids[cur], np.arange(sample.n_entities + 1))
    blocks, dropped = [], []
    for entity, a, b in zip(sample.entities, bounds[:-1], bounds[1:]):
        if a == b:
            dropped.append(entity)
            continue
        blocks.append((entity, years[a:b], dy[a:b], dX[a:b]))
    if dropped:
        warnings.warn(
            f"gmm: dropped {len(dropped)} entity(ies) with no differenceable rows",
            PanelWarning,
            stacklevel=2,
        )
    if not blocks:
        raise ValueError(f"equation {spec.label!r}: no differenceable observations")
    return DiffSample(columns=sample.columns, blocks=tuple(blocks), spec=spec)


def build_instruments(dataset: PanelDataset, spec: ModelSpec,
                      max_depth: int | None = None, collapse: bool = False,
                      sample: DiffSample | None = None) -> InstrumentMatrix:
    """Instrument matrix for the differenced equation of a dynamic spec.

    The level at year t - d instruments equation year t for each lag
    distance 2 <= d <= min(t - first period, max_depth + 1); a source year
    off the panel grid, or a non-finite level, leaves a zero.  Columns are
    "lev[t,t-d]" year by year with d descending, or collapsed "lev[t-d]".

    Parameters
    ----------
    dataset, spec : data and equation; spec must set lagged_dependent.
    max_depth : int, optional
        Number of level lags per equation year (most recent first);
        None means all available back to the panel start.
    collapse : bool
        Collapse level instruments to one column per lag distance.
    sample : DiffSample, optional
        Reuse an existing aligned sample (built from the same spec).

    Returns
    -------
    InstrumentMatrix
    """
    if not spec.lagged_dependent:
        raise ValueError("build_instruments requires a lagged-dependent equation")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if sample is None:
        sample = differenced_sample(dataset, spec)
    elif sample.spec != spec:
        raise ValueError("sample was built from a different spec")
    dep = dataset[spec.dependent]
    periods = np.asarray(dep.periods)
    ent_row = {e: i for i, e in enumerate(dep.entities)}

    eq_years = np.unique(np.concatenate([b[1] for b in sample.blocks]))
    reach = eq_years - periods[0]
    if max_depth is not None:
        reach = np.minimum(reach, max_depth + 1)
    dists = np.arange(2, reach.max() + 1)
    if collapse:
        level_cols = [f"lev[t-{d}]" for d in dists.tolist()]
    else:
        level_cols = [f"lev[{t},{t - d}]" for t, r in zip(eq_years.tolist(), reach.tolist())
                      for d in range(r, 1, -1)]
        last_col = np.cumsum(np.maximum(reach - 1, 0)) - 1  # year t's d = 2 column
    columns = level_cols + [f"d_{name}" for name in sample.columns[1:]]
    L = len(columns)

    blocks = []
    for entity, years, dy, dX in sample.blocks:
        k = np.searchsorted(eq_years, years)
        src = years[:, None] - dists  # (rows, distances) grid of source years
        j = np.minimum(np.searchsorted(periods, src), periods.size - 1)
        vals = dep.values[ent_row[entity], j]
        r, c = np.nonzero((dists <= reach[k, None]) & (periods[j] == src) & np.isfinite(vals))
        Z = np.zeros((years.shape[0], L))
        Z[r, c if collapse else last_col[k[r]] - c] = vals[r, c]
        Z[:, len(level_cols):] = dX[:, 1:]
        blocks.append((entity, years, Z))

    nonzero = np.zeros(L, dtype=bool)
    for _, _, Z in blocks:
        nonzero |= np.any(Z != 0.0, axis=0)
    dropped = tuple(c for c, keep in zip(columns, nonzero) if not keep)
    if dropped:
        warnings.warn(
            f"gmm: dropped {len(dropped)} all-zero instrument column(s)",
            PanelWarning,
            stacklevel=2,
        )
        blocks = [(e, yrs, Z[:, nonzero].copy()) for e, yrs, Z in blocks]  # own, C-ordered
        columns = [c for c, keep in zip(columns, nonzero) if keep]
    return InstrumentMatrix(
        columns=tuple(columns),
        blocks=tuple(blocks),
        collapse=collapse,
        max_depth=max_depth,
        dropped_columns=dropped,
    )


def _h_matrix(years: np.ndarray) -> np.ndarray:
    """Second-difference weighting block: 2 on the diagonal, -1 between
    calendar-adjacent rows.  years must be strictly increasing, as in a
    DiffSample block."""
    m = years.shape[0]
    H = 2.0 * np.eye(m)
    r = np.flatnonzero(_follows_previous(np.zeros(m, dtype=int), years))
    H[r, r - 1] = H[r - 1, r] = -1.0
    return H


def _inv_psd(A: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError:
        warnings.warn(f"{what}: singular weighting, using pseudo-inverse",
                      PanelWarning, stacklevel=3)
        return np.linalg.pinv(A)


def gmm_estimate(sample: DiffSample, instruments: InstrumentMatrix,
                 step: str = "twostep") -> GmmResult:
    """Estimate the differenced equation by one- or two-step GMM.

    Standard errors: one-step uses the robust sandwich; two-step uses the
    optimal-weighting form (no small-sample correction).  The J statistic
    is the criterion at the reported step's residual moments under the
    clustered one-step-residual weighting (stored as `weighting`); with
    df = instruments - columns equal to zero the p-value is None.
    """
    if step not in ("onestep", "twostep"):
        raise ValueError("step must be 'onestep' or 'twostep'")
    if len(sample.blocks) != len(instruments.blocks):
        raise ValueError("sample and instruments have different entity sets")
    k = sample.blocks[0][3].shape[1]
    L = instruments.n_instruments
    if L < k:
        raise ValueError(f"underidentified: {L} instruments for {k} parameters")

    S_zx = np.zeros((L, k))
    s_zy = np.zeros(L)
    A1 = np.zeros((L, L))
    H = {}  # one weighting block per distinct year vector
    for (e1, yrs, dy, dX), (e2, yrs2, Z) in zip(sample.blocks, instruments.blocks):
        if e1 != e2 or yrs.shape != yrs2.shape or np.any(yrs != yrs2):
            raise ValueError("instrument blocks are not aligned with the sample")
        S_zx += Z.T @ dX
        s_zy += Z.T @ dy
        key = yrs.tobytes()
        if key not in H:
            H[key] = _h_matrix(yrs)
        A1 += Z.T @ H[key] @ Z
    W1 = _inv_psd(A1, "gmm one-step")

    def solve_beta(W):
        M = S_zx.T @ W @ S_zx
        return np.linalg.solve(M, S_zx.T @ W @ s_zy), M

    beta1, M1 = solve_beta(W1)

    B = np.zeros((L, L))
    for (entity, yrs, dy, dX), (_, _, Z) in zip(sample.blocks, instruments.blocks):
        g = Z.T @ (dy - dX @ beta1)
        B += np.outer(g, g)
    W2 = _inv_psd(B, "gmm two-step")

    if step == "twostep":
        beta, M2 = solve_beta(W2)
        cov = np.linalg.inv(M2)
    else:
        beta = beta1
        Minv = np.linalg.inv(M1)
        cov = Minv @ (S_zx.T @ W1 @ B @ W1 @ S_zx) @ Minv

    m = np.zeros(L)
    for (entity, yrs, dy, dX), (_, _, Z) in zip(sample.blocks, instruments.blocks):
        m += Z.T @ (dy - dX @ beta)
    j_stat = float(m @ W2 @ m)
    j_df = L - k
    # chdtrc is NaN below zero, where a chi-square survival is 1
    j_p = float(chdtrc(j_df, max(j_stat, 0.0))) if j_df > 0 else None

    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.nan)
    p = 2.0 * ndtr(-np.abs(t))
    return GmmResult(
        method="gmm",
        step=step,
        columns=sample.columns,
        coefficients=beta,
        std_errors=se,
        t_stats=t,
        p_values=p,
        cov=cov,
        n_obs=sample.n_obs,
        n_entities=sample.n_entities,
        periods_included=sample.periods_included,
        instrument_count=L,
        j_stat=j_stat,
        j_df=j_df,
        j_p=j_p,
        one_step_coefficients=beta1,
        weighting=W2,
    )
