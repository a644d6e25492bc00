"""Summary statistics, normality diagnostics, and correlations.

Moment conventions follow the common econometrics-package layout: skewness
and kurtosis use 1/n central moments (kurtosis is raw, so a normal sample
centers on 3), the standard deviation uses n-1, and the Jarque-Bera statistic
is n/6 * (S^2 + (K-3)^2/4) with a chi-square(2) p-value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import chdtrc
from .data import PanelDataset, VariableSeries


@dataclass(frozen=True)
class DescriptiveStats:
    """Per-variable summary row."""

    variable: str
    n: int
    mean: float
    median: float
    maximum: float
    minimum: float
    std_dev: float
    skewness: float
    kurtosis: float
    jarque_bera: float
    jb_probability: float
    total: float
    sum_sq_dev: float


def jarque_bera(n: int, skewness: float, kurtosis: float) -> tuple:
    """Jarque-Bera statistic and p-value from precomputed moments.

    kurtosis is the raw fourth standardized moment, not excess.
    """
    if n < 1:
        raise ValueError("jarque_bera needs n >= 1")
    jb = n / 6.0 * (skewness**2 + (kurtosis - 3.0) ** 2 / 4.0)
    return float(jb), chdtrc(2, jb)


def describe(series: VariableSeries) -> DescriptiveStats:
    """Summary statistics over the finite cells of a series.

    Parameters
    ----------
    series : VariableSeries
        Observations; NaN cells are ignored.  The row takes its name.

    Returns
    -------
    DescriptiveStats
        With NaN in skewness, kurtosis, and Jarque-Bera for a
        zero-variance sample.

    Raises
    ------
    ValueError
        Fewer than four finite observations (the fourth moment needs
        that many to be meaningful).
    """
    x = np.ravel(series.values)
    x = x[np.isfinite(x)]
    if x.size < 4:
        raise ValueError("describe needs at least four finite observations")
    n = int(x.size)
    mean = float(x.mean())
    dev = x - mean
    ssd = float((dev**2).sum())
    m2 = ssd / n
    std_dev = float(np.sqrt(ssd / (n - 1)))
    if m2 > 0:
        skew = float((dev**3).mean() / m2**1.5)
        kurt = float((dev**4).mean() / m2**2)
        jb, jb_p = jarque_bera(n, skew, kurt)
    else:
        skew = kurt = jb = jb_p = float("nan")
    return DescriptiveStats(
        variable=series.name,
        n=n,
        mean=mean,
        median=float(np.median(x)),
        maximum=float(x.max()),
        minimum=float(x.min()),
        std_dev=std_dev,
        skewness=skew,
        kurtosis=kurt,
        jarque_bera=jb,
        jb_probability=jb_p,
        total=float(x.sum()),
        sum_sq_dev=ssd,
    )


def describe_table(dataset: PanelDataset, variables) -> list:
    """DescriptiveStats rows for the named variables, in their order, each
    over its own nonmissing cells."""
    return [describe(dataset[name]) for name in variables]


def correlation_matrix(dataset: PanelDataset, variables) -> tuple:
    """Pearson correlations of the named variables on the shared listwise sample.

    All requested variables are restricted to the cells where every one of
    them is observed (a single shared n), so the matrix is a true Gram
    matrix: symmetric, unit diagonal, entries in [-1, 1].

    Returns
    -------
    (names, matrix, n_used) : (tuple, ndarray, int)

    Raises
    ------
    ValueError
        Fewer than two variables, shared sample below three rows, or a
        variable constant on the shared sample (named in the message).
    """
    names = tuple(variables)
    if len(names) < 2:
        raise ValueError("correlation_matrix needs at least two variables")
    flat = np.column_stack([np.ravel(dataset[name].values) for name in names])
    keep = np.isfinite(flat).all(axis=1)
    n_used = int(keep.sum())
    if n_used < 3:
        raise ValueError(f"correlation_matrix: shared listwise sample has {n_used} rows, need 3")
    shared = flat[keep]
    centered = shared - shared.mean(axis=0)
    scale = np.sqrt((centered**2).sum(axis=0))
    dead = [name for name, s in zip(names, scale) if s == 0.0]
    if dead:
        raise ValueError(f"correlation_matrix: constant on the shared sample: {dead}")
    gram = centered.T @ centered
    out = gram / np.outer(scale, scale)
    # exact invariants; fp can stray by an ulp on both
    out = np.clip((out + out.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(out, 1.0)
    return names, out, n_used
