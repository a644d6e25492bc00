"""
Dynamic panel estimation: differenced GMM against the within estimator
======================================================================

With a lagged dependent variable and few time periods, the within
estimator is biased downward (the entity-mean subtraction correlates the
regressor with the error).  Differencing plus lagged-level instruments
removes it.  The demo estimates one persistent panel in detail, then runs
a Monte Carlo at rho = 0.8 to show the bias gap.
"""

import numpy as np

from panelmetrics.data import ModelSpec, PanelDataset, VariableSeries, regression_sample
from panelmetrics.effects import fixed_effects
from panelmetrics.gmm import build_instruments, differenced_sample, gmm_estimate

SPEC = ModelSpec(label="ar", dependent="y", regressors=(), lagged_dependent=True)


def build_panel(y, start=2000):
    n, width = y.shape
    entities = tuple(f"E{i}" for i in range(n))
    periods = tuple(range(start, start + width))
    ds = PanelDataset(entities=entities, periods=periods)
    ds.add(VariableSeries(name="y", entities=entities, periods=periods, values=y))
    return ds


def ar_panel(rng, n, width, rho, effect_scale=0.3):
    c = effect_scale * rng.standard_normal(n)
    y = np.empty((n, width))
    y[:, 0] = c / (1 - rho) + rng.standard_normal(n) / np.sqrt(1 - rho**2)
    for t in range(1, width):
        y[:, t] = c + rho * y[:, t - 1] + rng.standard_normal(n)
    return y


# 1. one panel in detail: instrument layout and the J test
rng = np.random.default_rng(3)
ds = build_panel(ar_panel(rng, 100, 8, 0.8))
Z = build_instruments(ds, differenced_sample(ds, SPEC), max_depth=2, collapse=True)
res = gmm_estimate(Z)
fe = fixed_effects(regression_sample(ds, SPEC))
print("single panel (true rho 0.8, N = 100, T = 8):")
print(f"  instruments: {Z.columns} (collapsed, depth 2)")
print(f"  within      {fe.coef('y_lag1'):.4f}")
print(f"  gmm twostep {res.coef('y_lag1'):.4f}  (se {res.std_errors[0]:.4f})")
print(f"  J {res.j_stat:.3f} on {res.j_df} df, p {res.j_p:.3f}")

# 2. Monte Carlo bias comparison
rng = np.random.default_rng(8)
gmm_hat, within_hat = [], []
for _ in range(100):
    ds = build_panel(ar_panel(rng, 100, 8, 0.8))
    Z = build_instruments(ds, differenced_sample(ds, SPEC), max_depth=2, collapse=True)
    gmm_hat.append(gmm_estimate(Z).coef("y_lag1"))
    within_hat.append(fixed_effects(regression_sample(ds, SPEC)).coef("y_lag1"))
print()
print("monte carlo over 100 panels (true rho 0.8):")
print(f"  within      mean {np.mean(within_hat):.4f}  bias {np.mean(within_hat) - 0.8:+.4f}")
print(f"  gmm twostep mean {np.mean(gmm_hat):.4f}  bias {np.mean(gmm_hat) - 0.8:+.4f}")
