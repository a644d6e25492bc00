"""Bundled synthetic panel: 74 entities, 2013-2021, six raw indicators.

Log prosperity follows a partial-adjustment law: each entity starts below
an entity-specific attractor and closes the gap at a fixed rate per year,
with the lagged log regressors entering through small loadings.  The
observed window is the adjustment phase, so the dynamic estimators see a
steadily growing, highly persistent series whose true lagged coefficient,
sitting strictly inside the unit circle, is recovered near but below one
with fit near one, while the raw values stay on realistic indicator scales.
A handful of cells are missing and one aid value is zero to exercise the
missing-data and log-diagnostic paths.  Everything is drawn from one
generator seeded with SEED, so the panel is fixed; the shipped CSV is
frozen output of write_fixture().
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .data import PanelDataset, VariableSeries, write_panel_csv

SEED = 733812  # the one seed of the bundled panel
N_ENTITIES = 74
YEARS = tuple(range(2013, 2022))

RAW_VARIABLES = (
    "prosperity",
    "oda_per_capita",
    "innovation",
    "rule_of_law",
    "aid_infrastructure",
    "aid_education",
)

# name -> (level, entity spread, trend per year, AR sigma)
_X_PARAMS = {
    "oda_per_capita": (2.5, 1.5, -0.010, 0.30),
    "innovation": (2.8, 0.6, 0.015, 0.08),
    "rule_of_law": (-0.4, 0.5, 0.002, 0.05),
    "aid_infrastructure": (16.5, 1.8, 0.000, 0.50),
    "aid_education": (16.0, 1.7, 0.000, 0.50),
}

# loading of log prosperity on each lagged log regressor
_LOADINGS = {
    "oda_per_capita": 0.004,
    "innovation": 0.010,
    "rule_of_law": 0.008,
    "aid_infrastructure": 0.002,
    "aid_education": 0.002,
}

_X_AR = 0.6  # regressor disturbance persistence
_Y_RHO = 0.93  # partial-adjustment coefficient of log prosperity
_Y_SIGMA = 0.003
_LEVEL_MEAN = 3.9  # attractor log level
_LEVEL_SD = 0.14
_GAP_MEAN = 0.30  # initial shortfall below the attractor
_GAP_SD = 0.05

# (entity index, variable, year) cells blanked to exercise unbalanced paths;
# all sit at panel edges so every entity keeps a long contiguous run.
_MISSING = (
    (4, "oda_per_capita", 2013),
    (11, "innovation", 2013),
    (23, "rule_of_law", 2021),
    (23, "oda_per_capita", 2021),
    (37, "aid_education", 2013),
    (52, "aid_infrastructure", 2013),
    (65, "innovation", 2021),
)
# one zero raw value: the log transform must flag and drop it
_ZERO = (48, "oda_per_capita", 2013)


def synthetic_panel() -> PanelDataset:
    """Generate the raw (untransformed) synthetic panel.

    Regressor logs carry one presample year (2012) so the lagged terms
    feeding the first observed prosperity value exist; only 2013-2021 is
    written into the dataset.  The prosperity recursion is exactly the
    dynamic equation the estimators fit: individual intercept, lagged
    dependent, lag-1 regressors.
    """
    rng = np.random.default_rng(SEED)
    T = len(YEARS)

    logs = {}
    for name, (level, spread, trend, sigma) in _X_PARAMS.items():
        ent_level = level + spread * rng.standard_normal(N_ENTITIES)
        shock = np.zeros((N_ENTITIES, T + 2))
        for t in range(1, T + 2):
            shock[:, t] = _X_AR * shock[:, t - 1] + sigma * rng.standard_normal(N_ENTITIES)
        steps = np.arange(0, T + 1, dtype=float)
        # columns run 2012..2021
        logs[name] = ent_level[:, None] + trend * steps[None, :] + shock[:, 1:]

    mu = _LEVEL_MEAN + _LEVEL_SD * rng.standard_normal(N_ENTITIES)
    gap = _GAP_MEAN + _GAP_SD * rng.standard_normal(N_ENTITIES)
    grand = {name: logs[name].mean() for name in _LOADINGS}
    entity_mean = {name: logs[name].mean(axis=1) for name in _LOADINGS}
    # the regressor loadings shift each entity's long-run level; fold that
    # into the starting point so the gap parameter keeps its meaning
    attractor = mu + sum(
        _LOADINGS[name] * (entity_mean[name] - grand[name]) for name in _LOADINGS
    ) / (1 - _Y_RHO)
    const = (1 - _Y_RHO) * mu - sum(_LOADINGS[name] * grand[name] for name in _LOADINGS)

    w = np.zeros((N_ENTITIES, T + 1))
    w[:, 0] = attractor - gap
    for t in range(1, T + 1):
        lagged = sum(_LOADINGS[name] * logs[name][:, t - 1] for name in _LOADINGS)
        w[:, t] = (
            const
            + _Y_RHO * w[:, t - 1]
            + lagged
            + _Y_SIGMA * rng.standard_normal(N_ENTITIES)
        )

    series = {"prosperity": w[:, 1:]}
    for name in _X_PARAMS:
        series[name] = logs[name][:, 1:]

    entities = tuple(f"C{i + 1:02d}" for i in range(N_ENTITIES))
    dataset = PanelDataset(entities=entities, periods=YEARS)
    year_col = {y: j for j, y in enumerate(YEARS)}
    for name in RAW_VARIABLES:
        raw = np.exp(series[name])
        for i, var, year in _MISSING:
            if var == name:
                raw[i, year_col[year]] = np.nan
        if _ZERO[1] == name:
            raw[_ZERO[0], year_col[_ZERO[2]]] = 0.0
        dataset.add(VariableSeries(name=name, entities=entities, periods=YEARS, values=raw))
    return dataset


def write_fixture(path):
    """Write the synthetic panel as a wide CSV."""
    write_panel_csv(synthetic_panel(), path, schema="wide")


def fixture_path() -> str:
    """Filesystem path of the shipped fixture CSV."""
    return str(resources.files("panelmetrics").joinpath("assets/synthetic_panel.csv"))


if __name__ == "__main__":
    import sys

    out = sys.argv[1] if len(sys.argv) > 1 else "synthetic_panel.csv"
    write_fixture(out)
    print(f"wrote {out}")
