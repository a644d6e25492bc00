"""Embedded constant tables for Dickey-Fuller style p-values.

Response-surface coefficients approximate the single-series Dickey-Fuller
tau distribution (MacKinnon 1994 polynomials with the 2010 revision of the
bounds).  Deterministic cases: "n" none, "c" intercept, "ct" intercept and
trend.  The p-value is Phi(polyval(coef, tau)) with a small-p/large-p
polynomial split at TAU_STAR and hard 0/1 clamps outside [TAU_MIN, TAU_MAX];
Phi is `_special.ndtr`, the package's own normal CDF on math.erfc.
"""

import numpy as np

from ._special import ndtr

# Split points and validity bounds for the tau response surface.
TAU_STAR = {"n": -1.04, "c": -1.61, "ct": -2.89}
TAU_MIN = {"n": -19.04, "c": -18.83, "ct": -16.18}
TAU_MAX = {"n": np.inf, "c": 2.74, "ct": 0.70}

# Cubic in tau for p below the split point.  Scale [1, 1, 1e-2] applied.
TAU_SMALLP = {
    "n": np.array([0.6344, 1.2378, 3.2496]) * np.array([1, 1, 1e-2]),
    "c": np.array([2.1659, 1.4412, 3.8269]) * np.array([1, 1, 1e-2]),
    "ct": np.array([3.2512, 1.6047, 4.9588]) * np.array([1, 1, 1e-2]),
}

# Quartic in tau for p above the split point.  Scale [1, 1e-1, 1e-1, 1e-2].
TAU_LARGEP = {
    "n": np.array([0.4797, 9.3557, -0.6999, 3.3066]) * np.array([1, 1e-1, 1e-1, 1e-2]),
    "c": np.array([1.7339, 9.3202, -1.2745, -1.0368]) * np.array([1, 1e-1, 1e-1, 1e-2]),
    "ct": np.array([2.5261, 6.1654, -3.7956, -6.0285]) * np.array([1, 1e-1, 1e-1, 1e-2]),
}

# Mean/standard-deviation adjustments for the pooled panel t-statistic
# (Levin-Lin-Chu Table 2), indexed by the average effective length
# T_tilde = T - pbar - 1.  Lookups interpolate linearly in T_tilde between
# rows; below the first row the adjustment is undefined and callers must
# refuse.  The final row is the asymptotic limit.
LLC_TTILDE = np.array([25, 30, 35, 40, 45, 50, 60, 70, 80, 90, 100, 250, np.inf])

LLC_MU = {
    "n": np.array([0.004, 0.003, 0.002, 0.002, 0.001, 0.001, 0.001, 0.000, 0.000,
                   0.000, 0.000, 0.000, 0.000]),
    "c": np.array([-0.554, -0.546, -0.541, -0.537, -0.533, -0.531, -0.527, -0.524,
                   -0.521, -0.520, -0.518, -0.509, -0.500]),
    "ct": np.array([-0.703, -0.674, -0.653, -0.637, -0.624, -0.614, -0.598, -0.587,
                    -0.578, -0.570, -0.564, -0.520, -0.500]),
}

LLC_SIGMA = {
    "n": np.array([1.049, 1.035, 1.027, 1.021, 1.017, 1.014, 1.011, 1.008, 1.007,
                   1.006, 1.005, 1.001, 1.000]),
    "c": np.array([0.919, 0.889, 0.867, 0.850, 0.837, 0.826, 0.810, 0.798, 0.789,
                   0.782, 0.776, 0.742, 0.707]),
    "ct": np.array([1.003, 0.949, 0.906, 0.871, 0.842, 0.818, 0.780, 0.751, 0.728,
                    0.710, 0.695, 0.603, 0.500]),
}


def mackinnon_p(stat, det: str):
    """Dickey-Fuller tau p-value from the response surface, elementwise.

    Values above TAU_MAX map to 1.0, as does +inf where TAU_MAX is +inf, and
    values below TAU_MIN to 0.0; between the bounds the small-p polynomial
    applies at or below TAU_STAR and the large-p polynomial above it.  A
    scalar returns a float, an array an array of its shape; NaN stays NaN.
    det is a known case: callers reach here through `unitroot._terms`.
    """
    tau = np.asarray(stat, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # only clamped values overflow
        small = np.polyval(TAU_SMALLP[det][::-1], tau)
        large = np.polyval(TAU_LARGEP[det][::-1], tau)
    p = ndtr(np.where(tau <= TAU_STAR[det], small, large))
    p = np.where((tau > TAU_MAX[det]) | (tau == np.inf), 1.0, np.where(tau < TAU_MIN[det], 0.0, p))
    return float(p) if p.ndim == 0 else p


def llc_adjustment(t_tilde: float, det: str) -> tuple:
    """Interpolated (mu*, sigma*) for the pooled t standardization.

    Raises ValueError when t_tilde falls below the first table row, where
    the published adjustments do not exist.  det is a known case, as in
    mackinnon_p.
    """
    grid, mu, sigma = LLC_TTILDE, LLC_MU[det], LLC_SIGMA[det]
    if t_tilde < grid[0]:
        raise ValueError(
            f"average effective length {t_tilde:.1f} below the adjustment table "
            f"minimum {grid[0]:.0f}; pooled-t standardization undefined"
        )
    if t_tilde >= grid[-2]:
        # Between the last finite row and the asymptote, interpolate in 1/T.
        w = grid[-2] / t_tilde
        return (
            float(mu[-1] + (mu[-2] - mu[-1]) * w),
            float(sigma[-1] + (sigma[-2] - sigma[-1]) * w),
        )
    j = int(np.searchsorted(grid, t_tilde, side="right") - 1)
    t0, t1 = grid[j], grid[j + 1]
    w = 0.0 if t1 == t0 else (t_tilde - t0) / (t1 - t0)
    return (
        float(mu[j] + (mu[j + 1] - mu[j]) * w),
        float(sigma[j] + (sigma[j + 1] - sigma[j]) * w),
    )
