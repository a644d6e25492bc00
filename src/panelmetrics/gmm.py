"""First-difference GMM for dynamic panels.

The levels equation with entity effects is differenced to remove the
effects; the differenced lagged dependent is instrumented with earlier
levels of the dependent (optionally depth-limited or collapsed), read
through the calendar shift `data.lag_values`, while differenced exogenous
regressors instrument themselves.  The differenced rows are one
RegressionSample, sorted by entity then year, and the instruments one
matrix aligned with it row for row, which carries that sample, so an
estimate takes the instruments alone.  Moments are formed per group of
H_GROUP entities, each entity's rows zero-padded to the group's longest
(`data.pad_runs`, a view if none needs it), and summed in entity order.
Estimates are two-step.  The one-step weighting is the inverse of the
tridiagonal second-difference form implied by iid level errors, each
entity's block built in the same group pass; two-step reweights with the
inverse of the clustered outer product of one-step moments.  Either matrix,
if singular, is refused.  Hansen's J is the minimized two-step criterion.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._special import chdtrc
from .data import (ModelSpec, PanelDataset, PanelWarning, RegressionSample, contiguous_run,
                   lag_values, pad_runs, regression_sample, warn_dropped)
from .effects import Estimates, _solve_ols, _wald


@dataclass(frozen=True)
class InstrumentMatrix:
    """Instruments for the rows of a differenced sample.

    Z is one C-ordered (rows, instruments) array, aligned row for row with
    sample, the differenced sample it was built for.  columns are labels:
    uncollapsed level instruments are "lev[t,s]" for equation year t and
    source year s, collapsed ones "lev[t-d]" by lag distance d.
    Cells with no usable level are zero.  Columns that would be entirely
    zero are dropped (recorded in dropped_columns).
    """

    columns: tuple
    Z: np.ndarray
    sample: RegressionSample
    dropped_columns: tuple = ()

    @property
    def n_instruments(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class GmmResult(Estimates):
    """Dynamic panel GMM estimates."""

    instrument_count: int
    j_stat: float
    j_df: int
    j_p: float | None
    one_step_coefficients: np.ndarray
    weighting: np.ndarray = field(repr=False)


def differenced_sample(dataset: PanelDataset, spec: ModelSpec) -> RegressionSample:
    """First-differenced rows of an equation, sorted by entity then year.

    A differenced row at year t requires complete level rows at t and t-1;
    y and X hold the differences and periods the year t.  Entities
    contributing no differenced rows are dropped with a warning naming them.
    """
    sample = regression_sample(dataset, spec)
    starts, _ = contiguous_run(sample.entity_ids, sample.periods)
    cur = np.delete(np.arange(sample.n_obs), starts)  # rows that follow their calendar predecessor
    kept, entity_ids = np.unique(sample.entity_ids[cur], return_inverse=True)
    names = np.array(sample.entities, dtype=object)
    warn_dropped("gmm", np.delete(names, kept), "with no differenceable rows")
    if cur.size == 0:
        raise ValueError(f"equation {spec.label!r}: no differenceable observations")
    return replace(
        sample,
        entities=tuple(names[kept]),
        entity_ids=entity_ids,
        periods=sample.periods[cur],
        y=sample.y[cur] - sample.y[cur - 1],
        X=sample.X[cur] - sample.X[cur - 1],
    )


def build_instruments(dataset: PanelDataset, sample: RegressionSample, *,
                      max_depth: int | None = None, collapse: bool = False) -> InstrumentMatrix:
    """Instrument matrix for a differenced sample of a dynamic equation.

    The level at year t - d instruments equation year t for each lag
    distance 2 <= d <= min(t - first period, max_depth + 1); a source year
    off the panel grid, or a non-finite level, leaves a zero.  Columns are
    "lev[t,t-d]" year by year with d descending, or collapsed "lev[t-d]".

    Parameters
    ----------
    dataset : PanelDataset
        The data the sample was drawn from.
    sample : RegressionSample
        ``differenced_sample(dataset, spec)``; its spec must set lagged_dependent.
    max_depth : int, optional
        Number of level lags per equation year (most recent first);
        None means all available back to the panel start.
    collapse : bool
        Collapse level instruments to one column per lag distance.

    Returns
    -------
    InstrumentMatrix
        Carries ``sample``, so ``gmm_estimate`` takes it alone.
    """
    spec = sample.spec
    if not spec.lagged_dependent:
        raise ValueError("build_instruments requires a lagged-dependent equation")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    dep = dataset[spec.dependent]
    periods = np.asarray(dep.periods)
    grid_row = dict(zip(dep.entities, range(len(dep.entities))))  # entity -> dataset row
    ent = np.fromiter(map(grid_row.__getitem__, sample.entities), int)[sample.entity_ids]

    years = sample.periods
    eq_years = np.unique(years)
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

    k = np.searchsorted(eq_years, years)
    col = np.searchsorted(periods, years)  # each row's own grid column
    # level at t - d per row and distance; NaN where the grid has no year t - d
    vals = lag_values(dep.values, periods, dists)[ent, col]
    r, c = np.nonzero((dists <= reach[k, None]) & np.isfinite(vals))
    level = vals[r, c]
    del vals
    if not collapse:
        c = last_col[k[r]] - c  # each level's column of the uncollapsed layout
    # Z is allocated once, in its final layout: only the columns holding a nonzero
    X = sample.X[:, 1:]
    nonzero = np.zeros(len(columns), dtype=bool)
    nonzero[c[level != 0.0]] = True
    nonzero[len(level_cols):] = np.any(X != 0.0, axis=0)
    width, n_levels = nonzero.sum(), nonzero[: len(level_cols)].sum()
    hit = nonzero[c]
    r *= width
    r += (np.cumsum(nonzero) - 1)[c]  # each level's index in Z, in place of its row
    flat = r[hit]
    level = level[hit]
    del r, c, hit
    Z = np.zeros((years.shape[0], width))
    Z.reshape(-1)[flat] = level
    Z[:, n_levels:] = X[:, nonzero[len(level_cols):]]

    dropped = tuple(c for c, keep in zip(columns, nonzero) if not keep)
    if dropped:
        warnings.warn(
            f"gmm: dropped {len(dropped)} all-zero instrument column(s)",
            PanelWarning,
            stacklevel=2,
        )
        columns = [c for c, keep in zip(columns, nonzero) if keep]
    return InstrumentMatrix(
        columns=tuple(columns),
        Z=Z,
        sample=sample,
        dropped_columns=dropped,
    )


H_GROUP = 64  # entities whose moments and weighting blocks are formed in one batched pass
STACK_CELLS = 1 << 15  # most cells of a group's stacked L x L products (A1, B)


def _h_blocks(years: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Second-difference weighting blocks of consecutive entities, built in one pass.
    Entity i has rows years[bounds[i]:bounds[i + 1]], strictly increasing; its block
    [i, :n, :n] of the (entities, m, m) result, m the most rows, has 2 on the diagonal
    and -1 between calendar-adjacent rows, and the block is zero past its n rows."""
    padded, inside = pad_runs(years, bounds[:-1], np.diff(bounds))
    link = (np.diff(padded) == 1) & inside[:, 1:]  # row d and d - 1 a year apart
    m = inside.shape[1]
    H = np.zeros((inside.shape[0], m * m))  # flat blocks: diagonals are strided slices
    H[:, :: m + 1] = 2.0 * inside
    H[:, 1 :: m + 1] = H[:, m :: m + 1] = np.where(link, -1.0, 0.0)
    return H.reshape(-1, m, m)


def gmm_estimate(instruments: InstrumentMatrix) -> GmmResult:
    """Estimate the differenced equation of instruments.sample by two-step GMM.

    Entities are taken H_GROUP at a time, their rows zero-padded to the
    group's longest, with the weighting blocks H_i from `_h_blocks`.  Each
    group's Z_i, dX_i and dy_i are laid out once, by `data.pad_runs`.
    Z_i'dX_i, Z_i'dy_i and the moments g_i = Z_i'u_i are one batched matmul
    per group; the L x L terms Z_i'H_i Z_i (of A1) and g_i g_i' (of B) are
    too when H_GROUP * L * L is at most STACK_CELLS, else each is formed and
    added on its own.  Every sum adds the entities' terms one after another
    in entity order, as a per-entity loop would.
    `one_step_coefficients` are the fit under the inverse of A1; the reported
    ones reweight with the inverse of B, the clustered outer product of their
    moments (stored as `weighting`), with optimal-weighting SEs (no
    small-sample correction).  J is Hansen's two-step statistic under
    `weighting`; with df = instruments - columns equal to zero its p-value is
    None.  Refused, naming the equation: more instruments than entities (B
    has rank at most N), a singular A1 or B, a collinear instrumented design,
    and a Z whose rows are not the sample's.
    """
    sample = instruments.sample
    label = sample.spec.label
    if instruments.Z.shape[0] != sample.n_obs:
        raise ValueError("instrument rows are not aligned with the sample")
    k = sample.X.shape[1]
    L = instruments.n_instruments
    N = sample.n_entities
    if L < k:
        raise ValueError(f"underidentified: {L} instruments for {k} parameters")
    if L > N:  # B below has rank at most N (Roodman 2009)
        raise ValueError(f"gmm({label}): {L} instruments outnumber {N} entities; "
                         "the two-step weighting is singular")

    Z, dy, dX, years = instruments.Z, sample.y, sample.X, sample.periods
    bounds = np.searchsorted(sample.entity_ids, np.arange(N + 1))
    groups = [bounds[g : g + H_GROUP + 1] for g in range(0, N, H_GROUP)]
    stack = H_GROUP * L * L <= STACK_CELLS  # a group's L x L products stacked, or one at a time

    def add(total, parts):  # total + parts[0] + parts[1] + ..., one after another in entity order
        # not sum/reduce: reduce adds one-element terms (L = 1) pairwise
        return np.add.accumulate(np.concatenate((total[None], parts)))[-1]

    S_zx, s_zy, A1 = np.zeros((L, k)), np.zeros(L), np.zeros((L, L))
    layouts = []  # each group's Z_i', dX_i and dy_i, laid out once for every pass
    for b in groups:
        Zp, Xp, yp = (pad_runs(v, b[:-1], np.diff(b))[0] for v in (Z, dX, dy))
        Zt = Zp.transpose(0, 2, 1)
        layouts.append((Zt, Xp, yp))
        S_zx = add(S_zx, Zt @ Xp)
        s_zy = add(s_zy, (Zt @ yp[..., None])[..., 0])
        H = _h_blocks(years, b)
        if stack:
            A1 = add(A1, Zt @ H @ Zp)
        else:
            for zt, h, z in zip(Zt, H, Zp):
                A1 += zt @ h @ z
    _solve_ols(S_zx, s_zy, f"gmm({label})", sample.columns)  # only its refusal is used

    def inverse(A, step):
        try:
            return np.linalg.inv(A)
        except np.linalg.LinAlgError:
            raise ValueError(f"gmm({label}): singular {step} weighting "
                             f"({L} instruments, {N} entities)") from None

    def solve_beta(W):
        M = S_zx.T @ W @ S_zx
        try:
            return np.linalg.solve(M, S_zx.T @ W @ s_zy), M
        except np.linalg.LinAlgError:
            raise ValueError(f"gmm({label}): singular weighted design "
                             f"({L} instruments, {N} entities)") from None

    def moments(beta):  # each group's entity moment vectors Z_i'u_i, (entities, L)
        for Zt, Xp, yp in layouts:
            yield (Zt @ (yp - Xp @ beta)[..., None])[..., 0]

    beta1, _ = solve_beta(inverse(A1, "one-step"))

    B = np.zeros((L, L))
    for G in moments(beta1):
        if stack:
            B = add(B, G[:, :, None] * G[:, None, :])
        else:
            for g in G:
                B += np.outer(g, g)
    W2 = inverse(B, "two-step")
    beta, M2 = solve_beta(W2)
    cov = np.linalg.inv(M2)

    m = functools.reduce(add, moments(beta), np.zeros(L))
    j_stat = float(m @ W2 @ m)
    j_df = L - k
    j_p = chdtrc(j_df, j_stat) if j_df > 0 else None

    se, t, p = _wald(beta, cov)
    return GmmResult(
        method="gmm",
        columns=sample.columns,
        coefficients=beta,
        std_errors=se,
        t_stats=t,
        p_values=p,
        cov=cov,
        n_obs=sample.n_obs,
        n_entities=N,
        periods_included=sample.periods_included,
        instrument_count=L,
        j_stat=j_stat,
        j_df=j_df,
        j_p=j_p,
        one_step_coefficients=beta1,
        weighting=W2,
    )
